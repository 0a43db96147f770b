package figures

import (
	"reflect"
	"runtime"
	"testing"
)

// TestFiguresSameAtAnyWorkerCount pins that a figure renders the same
// tables whatever the size of the scenario pool that runs its scenarios
// (one worker per GOMAXPROCS), for each shape of read the pool serves: a
// swept grid (table1), a run's two flows (fig20), its PRB samples
// (fig21a) and its throughput timeline (fig17).
func TestFiguresSameAtAnyWorkerCount(t *testing.T) {
	for _, fig := range []struct {
		id  string
		run func(quick bool) []Table
	}{
		{"table1", Table1},
		{"fig20", Figure20},
		{"fig21a", Figure21a},
		{"fig17", Figure17},
	} {
		t.Run(fig.id, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			one := fig.run(true)
			runtime.GOMAXPROCS(3)
			if three := fig.run(true); !reflect.DeepEqual(one, three) {
				t.Fatalf("%s differs between 1 and 3 workers:\n%v\n%v", fig.id, one, three)
			}
		})
	}
}
