// Command pbebench regenerates the paper's tables and figures, plus the
// 5G NR experiments added on top of the paper's LTE evaluation.
//
// Usage:
//
//	pbebench -exp table1           # one experiment
//	pbebench -exp all              # everything
//	pbebench -exp fig12 -quick     # reduced grid for a fast look
//	pbebench -exp nr-blockage      # 5G NR mmWave blockage scenario
//	pbebench -list                 # show available experiment ids
//	pbebench -list -json           # ids as JSON
//	pbebench -exp nr-tput -json    # machine-readable tables
//
// The -json mode emits one object per experiment: its id, title and
// tables. Run cost is measured by the benchmark/ harness, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pbecc/internal/figures"
	"pbecc/internal/obs"
)

// expResult is one experiment's -json entry.
type expResult struct {
	figures.Experiment
	Tables []figures.Table `json:"tables"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	quick := flag.Bool("quick", false, "reduced durations and location grid")
	list := flag.Bool("list", false, "list experiment ids")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text tables")
	prof := obs.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	if *list {
		if *jsonOut {
			if err := enc.Encode(figures.Experiments()); err != nil {
				fatal(err)
			}
			return
		}
		for _, e := range figures.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	// Resolve the experiment before running anything, so an unknown ID
	// fails fast with a non-zero exit in every output mode (-json
	// included) and lists what would have been valid.
	var matched []figures.Experiment
	for _, e := range figures.Experiments() {
		if *exp == "all" || e.ID == *exp {
			matched = append(matched, e)
		}
	}
	if len(matched) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid ids:\n", *exp)
		for _, e := range figures.Experiments() {
			fmt.Fprintf(os.Stderr, "  %s\n", e.ID)
		}
		os.Exit(2)
	}
	var collected []expResult
	for _, e := range matched {
		tables := e.Run(*quick)
		if *jsonOut {
			collected = append(collected, expResult{e, tables})
			continue
		}
		fmt.Printf("--- running %s (%s) ---\n", e.ID, e.Title)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}
	if *jsonOut {
		if err := enc.Encode(collected); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
