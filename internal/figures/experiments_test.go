package figures

import (
	"reflect"
	"runtime"
	"testing"
)

// TestTable1SameAtAnyWorkerCount pins that a swept figure renders the same
// tables whatever the size of the sweep pool that runs its jobs (one
// worker per GOMAXPROCS).
func TestTable1SameAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := Table1(true)
	runtime.GOMAXPROCS(3)
	if three := Table1(true); !reflect.DeepEqual(one, three) {
		t.Fatalf("table1 differs between 1 and 3 workers:\n%v\n%v", one, three)
	}
}
