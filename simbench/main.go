// Command simbench is the repository's benchmark: how fast the simulator
// gets through two fixed single-node experiment grids, and where that
// time goes layer by layer.
//
//	bash simbench/run.sh --workload fig7-pagecache --seed 1 --seconds 32 --trace 0
//
// Each run drives one workload from outside the simulator: the grid is a
// runner.Plan derived from --seed and executed through runner.Run at one
// worker, a closed loop in which the next cell starts when the previous
// one returns. Whole passes over the grid repeat for --seconds. Every
// cell's simulated outcome is hashed into a digest and checked against
// the cell's other runs (every pass, traced or not, and a final pass at
// two workers). Every run, whatever its seed, also runs the default-seed
// grid at two workers and checks it against the digests pinned for
// experiments.ModelVersion.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off in fresh measuring processes (see childPhase). With
// --trace 1 it measures in its own process, repeats the passes with
// metric registries, pprof labels and the CPU profiler attached and
// reports the per-layer metrics; spans and profiles are written under
// -out. The
// report goes to standard error; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
// README.md lists the metrics and what each one is expected to move.
//
// --workload all runs every workload, untraced and traced, each in its
// own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, "seed the grid's inputs are derived from")
	seconds := fs.Float64("seconds", 32, "minimum host seconds of timed passes")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	outDir := fs.String("out", ".bench_build/simbench-out", "directory for a traced run's spans and profiles")
	pin := fs.Bool("pin", false, "print the workload's digests at the default seed as a pinned table entry")
	child := fs.Bool("child", false, "run as a measuring process of an untraced run: set-up and --seconds of timed passes, reported as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "simbench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(names, *seed, *seconds, *outDir, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *pin {
		if err := printPins(w, stdout); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	if *child {
		if err := runChild(w, *seed, time.Duration(*seconds*float64(time.Second)), stdout); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(w, options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		outDir:  *outDir,
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll re-runs this program once per workload and trace mode, so each
// workload's peak RSS is its own.
func runAll(names []string, seed uint64, seconds float64, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	status := 0
	for _, n := range names {
		for _, t := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", n, "--trace", t, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "simbench: %s --trace %s: %v\n", n, t, err)
				status = 1
			}
		}
	}
	return status
}

// printPins runs one pass at the default seed and prints its digests in
// the form of a pinned table entry.
func printPins(w workloadDef, out io.Writer) error {
	b := newBench(w.plan(defaultSeed), w.exec)
	if _, err := b.pass(b.allCells(), 1, false); err != nil {
		return err
	}
	if b.failed > 0 {
		return fmt.Errorf("cells failed: %s", strings.Join(b.failures, "; "))
	}
	fmt.Fprintf(out, "\t\t%q: {\n", w.name)
	for i, d := range b.want {
		fmt.Fprintf(out, "\t\t\t0x%016x, // %s\n", d, b.plan.Cells[i])
	}
	fmt.Fprintln(out, "\t\t},")
	return nil
}
