package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// An untraced run measures in fresh processes, one after another. How
// fast the same pass runs on a shared host depends on the process as much
// as on the moment: two processes running the same grid side by side
// differed by up to 35%, and one process keeps its speed for many
// seconds. Each cell's fastest run is therefore taken over several
// processes, not over several passes of one.
const (
	// minChildren is the fewest measuring processes an untraced run
	// starts.
	minChildren = 4
	// childSeconds is how long one measuring process runs timed passes;
	// it always runs at least one.
	childSeconds = 2 * time.Second
)

// childReport is what a measuring process prints: its set-up, its timed
// passes and the heap bytes those passes allocated.
type childReport struct {
	// SetupCPUNs is the process's CPU time from its start to the end of
	// its set-up pass: one sample of setup_s.
	SetupCPUNs int64       `json:"setup_cpu_ns"`
	Setup      childPass   `json:"setup"`
	Passes     []childPass `json:"passes"`
	AllocBytes uint64      `json:"alloc_bytes"`
	// CalNs are the calibration kernel's CPU times during the timed
	// passes.
	CalNs []int64 `json:"cal_ns"`
}

type childPass struct {
	ElapsedNs int64       `json:"elapsed_ns"`
	CPUNs     int64       `json:"cpu_ns"`
	PeakRSS   uint64      `json:"peak_rss"`
	Cells     []childCell `json:"cells"`
}

// childCell is one cell run. The measuring process does not judge its
// digest: the parent checks every run against the runs of all processes.
type childCell struct {
	Index   int    `json:"index"`
	Digest  uint64 `json:"digest"`
	CPUNs   int64  `json:"cpu_ns"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Err     string `json:"err,omitempty"`
}

// runChild is the body of a measuring process: the set-up, then timed
// passes on one P for at least d, reported as one JSON object on out.
func runChild(w workloadDef, seed uint64, d time.Duration, out io.Writer) error {
	runtime.GOMAXPROCS(1)
	b := newBench(w.plan(seed), w.exec)
	setup, err := b.pass(w.setupCells(), 1, false)
	if err != nil {
		return err
	}
	rep := childReport{SetupCPUNs: int64(cpuTime()), Setup: toChildPass(setup)}
	if b.cal, err = newCalibrator(); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := b.runPhase(d, 1, false)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, p := range ph.passes {
		// The calibration buffer is resident throughout; the simulator's
		// peak is the rest.
		p.peakRSS -= min(p.peakRSS, calBytes)
		rep.Passes = append(rep.Passes, toChildPass(p))
	}
	for _, d := range b.cal.samples {
		rep.CalNs = append(rep.CalNs, int64(d))
	}
	return json.NewEncoder(out).Encode(rep)
}

func toChildPass(pr passResult) childPass {
	cp := childPass{ElapsedNs: int64(pr.elapsed), CPUNs: int64(pr.cpu), PeakRSS: pr.peakRSS}
	for j, idx := range pr.cells {
		r := pr.results[j]
		c := childCell{Index: idx, Digest: r.digest, CPUNs: int64(r.cpu),
			StartNs: r.start.UnixNano(), EndNs: r.end.UnixNano()}
		if pr.errs[j] != nil {
			c.Err = firstLine(pr.errs[j])
		}
		cp.Cells = append(cp.Cells, c)
	}
	return cp
}

// toPass turns a reported pass back into an unchecked passResult of b's
// plan.
func (cp childPass) toPass(ncells int) (passResult, error) {
	pr := passResult{elapsed: time.Duration(cp.ElapsedNs), cpu: time.Duration(cp.CPUNs), scale: 1, peakRSS: cp.PeakRSS}
	for _, c := range cp.Cells {
		if c.Index < 0 || c.Index >= ncells {
			return pr, fmt.Errorf("measuring process reported cell %d of %d", c.Index, ncells)
		}
		var err error
		if c.Err != "" {
			err = errors.New(c.Err)
		}
		pr.cells = append(pr.cells, c.Index)
		pr.errs = append(pr.errs, err)
		pr.results = append(pr.results, cellResult{digest: c.Digest, cpu: time.Duration(c.CPUNs),
			start: time.Unix(0, c.StartNs), end: time.Unix(0, c.EndNs)})
	}
	pr.ok = make([]bool, len(pr.cells))
	return pr, nil
}

// childPhase starts measuring processes one after another until at least
// minChildren have run and their timed passes add up to at least d. Every
// cell run they report, set-up included, is checked against b. It
// returns the timed passes, each process's set-up CPU seconds at nominal
// host speed, each process's calibration scale and the heap bytes the
// timed passes allocated.
func childPhase(b *bench, w workloadDef, seed uint64, d time.Duration) (ph phase, setups, scales []float64, alloc uint64, err error) {
	self, err := os.Executable()
	if err != nil {
		return ph, nil, nil, 0, err
	}
	for k := 0; k < minChildren || ph.elapsed < d; k++ {
		cmd := exec.Command(self, "-child", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(childSeconds.Seconds(), 'g', -1, 64))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		// The measuring process must not outlive this one.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return ph, nil, nil, 0, fmt.Errorf("measuring process %d: %v: %s", k, err, bytes.TrimSpace(stderr.Bytes()))
		}
		var rep childReport
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			return ph, nil, nil, 0, fmt.Errorf("measuring process %d: %w", k, err)
		}
		var cal []time.Duration
		for _, ns := range rep.CalNs {
			cal = append(cal, time.Duration(ns))
		}
		scale := calScale(cal)
		mode := fmt.Sprintf("process %d workers=1 traced=false", k)
		for i, cp := range append([]childPass{rep.Setup}, rep.Passes...) {
			pr, err := cp.toPass(len(b.plan.Cells))
			if err != nil {
				return ph, nil, nil, 0, err
			}
			b.checkPass(&pr, mode)
			if i > 0 {
				pr.scale, pr.proc = scale, k
				ph.add(pr)
			}
		}
		setups = append(setups, scale*time.Duration(rep.SetupCPUNs).Seconds())
		scales = append(scales, scale)
		alloc += rep.AllocBytes
	}
	return ph, setups, scales, alloc, nil
}
