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

	"pbecc/internal/harness"
	"pbecc/internal/obs"
)

// expResult is one experiment's -json entry.
type expResult struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Tables []harness.Table `json:"tables"`
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
			type entry struct {
				ID    string `json:"id"`
				Title string `json:"title"`
			}
			var out []entry
			for _, e := range harness.Experiments() {
				out = append(out, entry{e.ID, e.Title})
			}
			if err := enc.Encode(out); err != nil {
				fatal(err)
			}
			return
		}
		for _, e := range harness.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	var collected []expResult
	run := func(e harness.Experiment) {
		tables := e.Run(*quick)
		if *jsonOut {
			collected = append(collected, expResult{ID: e.ID, Title: e.Title, Tables: tables})
			return
		}
		fmt.Printf("--- running %s (%s) ---\n", e.ID, e.Title)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}

	// Resolve the experiment before running anything, so an unknown ID
	// fails fast with a non-zero exit in every output mode (-json
	// included) and lists what would have been valid.
	var matched []harness.Experiment
	for _, e := range harness.Experiments() {
		if *exp == "all" || e.ID == *exp {
			matched = append(matched, e)
		}
	}
	if len(matched) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid ids:\n", *exp)
		for _, e := range harness.Experiments() {
			fmt.Fprintf(os.Stderr, "  %s\n", e.ID)
		}
		os.Exit(2)
	}
	for _, e := range matched {
		run(e)
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
