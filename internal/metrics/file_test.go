package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFilePromRoundTrips: a .prom path gets the OpenMetrics
// exposition, which ParseExposition (the `hpmmap-ledger diff` reader)
// must read back value for value.
func TestWriteFilePromRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter(BuddyAllocsTotal).Add(42)
	r.Counter(HPMMAPBytesMapped).Add(1 << 21)
	r.Gauge(BuddyFragRatio).Set(0.25)
	h := r.Histogram(FaultSmallCycles)
	h.Observe(3)
	h.Observe(900)
	snap := r.Snapshot()

	path := filepath.Join(t.TempDir(), "m.prom")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, err := ParseExposition(f)
	if err != nil {
		t.Fatalf(".prom output does not parse as OpenMetrics: %v", err)
	}
	for _, m := range snap.Metrics {
		name := m.Name
		if m.Kind == KindCounter {
			name = strings.TrimSuffix(name, "_total") + "_total"
		}
		p, ok := parsed.Get(name)
		if !ok {
			t.Fatalf("%s missing after round trip", name)
		}
		if p.Kind != m.Kind || p.Value != m.Value || p.Count != m.Count || p.Sum != m.Sum {
			t.Errorf("%s: parsed %+v, want %+v", name, p, m)
		}
	}
}

// TestWriteFileFormatByExtension: .json is JSON, anything else the
// legacy text format.
func TestWriteFileFormatByExtension(t *testing.T) {
	r := NewRegistry()
	r.Counter(BuddyAllocsTotal).Add(7)
	snap := r.Snapshot()
	dir := t.TempDir()
	for _, name := range []string{"m.json", "m.txt"} {
		if err := snap.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	js, _ := os.ReadFile(filepath.Join(dir, "m.json"))
	if !json.Valid(js) {
		t.Errorf(".json output is not JSON: %q", js)
	}
	txt, _ := os.ReadFile(filepath.Join(dir, "m.txt"))
	if strings.Contains(string(txt), "# EOF") || !strings.Contains(string(txt), BuddyAllocsTotal) {
		t.Errorf("text output unexpected: %q", txt)
	}
}
