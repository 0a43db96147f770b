package harness_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pbecc/internal/figures"
)

// The figure registry lives in internal/figures; these tests regenerate
// its figures, which run the harness's scenarios end to end.

// TestRunAllExperimentsQuick is table-driven over every registered
// experiment ID - including the nr-* additions - so a new experiment is
// covered the moment it is registered and none can silently rot: each must
// produce at least one table with at least one row, with every row matching
// its header width.
func TestRunAllExperimentsQuick(t *testing.T) {
	for _, e := range figures.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(true)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s/%s has no rows", e.ID, tb.ID)
				}
				for i, r := range tb.Rows {
					if len(r) != len(tb.Header) {
						t.Fatalf("%s/%s row %d has %d cells, header has %d",
							e.ID, tb.ID, i, len(r), len(tb.Header))
					}
				}
				if testing.Verbose() {
					tb.Fprint(os.Stdout)
				}
			}
		})
	}
}

func TestTable1Shape(t *testing.T) {
	tables := figures.Table1(true)
	tb := tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("table1 rows = %d, want 6 (3 baselines x busy/idle)", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if len(r) != 5 {
			t.Fatalf("row %v has %d cells", r, len(r))
		}
		// The quick grid has busy locations only: idle rows have no
		// samples and must say so instead of printing 0.00x.
		for _, cell := range r[2:] {
			if idle := r[1] == "idle"; idle != (cell == "n/a") {
				t.Errorf("%s %s row: cell %q", r[0], r[1], cell)
			}
		}
	}
	if !strings.Contains(tb.Notes[0], "idle n/a") {
		t.Errorf("residency note %q, want idle n/a", tb.Notes[0])
	}
}

func TestFigure6bMonotone(t *testing.T) {
	tb := figures.Figure6b(true)[0]
	prev := -1.0
	for _, row := range tb.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[4], "%f", &v); err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("error rate not monotone in TB size: %v", tb.Rows)
		}
		prev = v
	}
}

func TestFigure7FilterEffect(t *testing.T) {
	tb := figures.Figure7(true)[0]
	last := tb.Rows[len(tb.Rows)-1] // mean row
	var raw, filtered float64
	fmt.Sscanf(last[1], "%f", &raw)
	fmt.Sscanf(last[2], "%f", &filtered)
	if filtered >= raw {
		t.Fatalf("filter did not reduce user count: %.1f -> %.1f", raw, filtered)
	}
	if raw < 8 {
		t.Fatalf("raw user count %.1f too low for a busy cell (paper ~15.8)", raw)
	}
	if filtered > 4 {
		t.Fatalf("filtered count %.1f too high (paper ~1.3)", filtered)
	}
}

func TestFigure2Activates(t *testing.T) {
	tb := figures.Figure2(true)[0]
	foundSecondary := false
	for _, row := range tb.Rows {
		var s2 float64
		fmt.Sscanf(row[2], "%f", &s2)
		if s2 > 5 {
			foundSecondary = true
		}
	}
	if !foundSecondary {
		t.Fatal("secondary cell never carried PRBs in the Figure 2 trace")
	}
}

func TestFigure8MinDelayStable(t *testing.T) {
	tb := figures.Figure8(true)[0]
	// The minimum delay must stay near propagation at every load (the
	// paper's observation enabling D_prop estimation).
	var mins []float64
	for _, row := range tb.Rows {
		var v float64
		fmt.Sscanf(row[1], "%f", &v)
		mins = append(mins, v)
	}
	for _, m := range mins {
		if m > mins[0]*1.5+1 {
			t.Fatalf("min delay drifted with load: %v", mins)
		}
	}
}
