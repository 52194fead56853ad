// Command gtopk-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gtopk-bench -list                 # enumerate experiments
//	gtopk-bench -exp fig9             # regenerate one artifact
//	gtopk-bench -all                  # regenerate everything
//	gtopk-bench -exp fig5 -quick      # smoke-test profile
//	gtopk-bench -exp codec-bytes      # wire bytes per codec; updates BENCH_gtopk.json
//
// Output is text tables: one row per x-axis point of the original plot.
// Every number is modelled (the α-β clock), counted (bytes, selected
// entries) or a training loss; wall-clock measurements come from
// benchmark/ and `go test -bench`, never from here.
// Unknown -exp names (and invalid flag values) print the valid choices
// and exit with status 2, mirroring gtopk-worker's strict validation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"gtopkssgd/internal/bench"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id to run (see -list)")
		list    = flag.Bool("list", false, "list available experiments")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "shrink training experiments to smoke-test size")
		seed    = flag.Uint64("seed", 42, "random seed for all experiments")
		jsonOut = flag.String("json", "", "codec-bytes/hierarchy/quorum/quorum_hier experiments: path of the artifact whose sections they update (default BENCH_gtopk.json; with -quick or -hier-group nothing is written unless this is set)")
		hierG   = flag.Int("hier-group", 0, "hierarchy experiment: override the group-size sweep with {G} (0 keeps the default {4,8,16}; 1 is flat and therefore rejected)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
	)
	flag.Parse()

	if *hierG < 0 || *hierG == 1 {
		usageError(fmt.Errorf("-hier-group %d out of range: need 0 (default sweep) or >= 2", *hierG))
	}
	opt := bench.Options{Quick: *quick, Seed: *seed, JSONPath: *jsonOut, HierGroup: *hierG}
	if !*list && !*all && *expID == "" {
		usageError(fmt.Errorf("one of -exp, -list or -all is required"))
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gtopk-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gtopk-bench:", err)
			os.Exit(1)
		}
		defer f.Close() //nolint:errcheck // profile already flushed
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gtopk-bench:", err)
				return
			}
			defer f.Close() //nolint:errcheck // nothing else to do on close failure
			runtime.GC()    // materialize the post-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gtopk-bench:", err)
			}
		}()
	}
	if err := run(*expID, *list, *all, opt); err != nil {
		fmt.Fprintln(os.Stderr, "gtopk-bench:", err)
		os.Exit(1)
	}
}

// usageError reports a bad flag value with the usage text and exits 2
// (the conventional "bad invocation" status flag.ExitOnError also uses).
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "gtopk-bench: %v\n\n", err)
	flag.Usage()
	os.Exit(2)
}

func run(expID string, list, all bool, opt bench.Options) error {
	switch {
	case list:
		printExperiments(os.Stdout)
		return nil
	case all:
		for _, e := range bench.Experiments() {
			fmt.Printf("==== %s: %s ====\n\n", e.ID, e.Description)
			out, err := e.Run(context.Background(), opt)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Println(out)
		}
		return nil
	case expID != "":
		e, err := bench.Lookup(expID)
		if err != nil {
			// An unknown experiment is an invocation error, not a runtime
			// failure: list the valid names and exit 2 so scripts can tell
			// a typo from a broken benchmark.
			fmt.Fprintf(os.Stderr, "gtopk-bench: %v\n\nvalid experiments:\n", err)
			printExperiments(os.Stderr)
			os.Exit(2)
		}
		out, err := e.Run(context.Background(), opt)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	default:
		// Unreachable: main rejects the empty mode with usageError.
		return fmt.Errorf("one of -exp, -list or -all is required")
	}
}

// printExperiments writes the experiment catalogue, one per line.
func printExperiments(w *os.File) {
	for _, e := range bench.Experiments() {
		fmt.Fprintf(w, "%-22s %s\n", e.ID, e.Description)
	}
}
