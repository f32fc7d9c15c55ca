package metrics

import (
	"os"
	"strings"
)

// WriteFile writes the snapshot to path in the format its extension
// selects: .json is WriteJSON, .prom is WriteOpenMetrics (the format
// `hpmmap-ledger diff` reads), anything else WriteText. The path "-"
// writes text to standard output. Every CLI's -metrics flag uses it.
func (s Snapshot) WriteFile(path string) error {
	write := s.WriteText
	switch {
	case strings.HasSuffix(path, ".json"):
		write = s.WriteJSON
	case strings.HasSuffix(path, ".prom"):
		write = s.WriteOpenMetrics
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
