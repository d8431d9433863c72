package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update re-records the golden tables: `go test ./internal/exp -run
// TestAnalyticTablesGolden -update`.
var update = flag.Bool("update", false, "re-record the golden tables in testdata/")

// TestAnalyticTablesGolden pins the exact text of the artifacts that need no
// training — the hardware models, the format accounting and the tile
// simulator — so a refactor of the harness or the renderer cannot move a
// single digit of them unnoticed. The band tests beside it check the paper's
// claims; this one checks that nothing changed at all.
func TestAnalyticTablesGolden(t *testing.T) {
	want := map[string]bool{"fig4": true, "fig8": true, "ext-network": true, "tile-sim": true, "sweep": true}
	for _, f := range Figures() {
		if !want[f.Name] {
			continue
		}
		delete(want, f.Name)
		t.Run(f.Name, func(t *testing.T) {
			got := f.Run(quickHarness()).String()
			path := filepath.Join("testdata", f.Name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if got != string(golden) {
				t.Fatalf("%s table drifted from %s:\n--- got ---\n%s--- want ---\n%s", f.Name, path, got, golden)
			}
		})
	}
	if len(want) != 0 {
		t.Fatalf("golden artifacts missing from the suite: %v", want)
	}
}
