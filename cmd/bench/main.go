// Command bench regenerates the tables and figures of the paper's
// evaluation (Section IV) and runs the certification experiments. Each
// experiment prints the rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured.
//
// Usage:
//
//	bench -experiment NAME|all [-quick] [-json [-outdir DIR]] [-flight-dir DIR]
//
// The experiment names come from the registry in internal/bench
// (`bench -h` lists them, and which of them honour -flight-dir). With
// -json each experiment also writes a machine-readable BENCH_<name>.json
// (metric name/value/unit, injection fingerprints, git SHA, timestamp)
// for CI and regression diffing. A run that fails one of its
// certification gates names the gate on stderr and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"shadowdb/internal/bench"
	"shadowdb/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	registry := bench.Experiments()
	var names, flightNames []string
	for _, e := range registry {
		names = append(names, e.Name)
		if e.Flight {
			flightNames = append(flightNames, e.Name)
		}
	}
	choices := strings.Join(names, "|") + "|all"

	experiment := flag.String("experiment", "all", choices)
	quick := flag.Bool("quick", false, "reduced scales for a fast pass")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder postmortem bundles ("+
		strings.Join(flightNames, "/")+" dump here on violation or an uncertified run)")
	admin := flag.String("admin", "", "admin HTTP address (metrics, pprof) while experiments run")
	jsonOut := flag.Bool("json", false, "write BENCH_<name>.json per experiment")
	outdir := flag.String("outdir", ".", "directory for -json reports")
	flag.Parse()

	var todo []bench.Experiment
	for _, e := range registry {
		if *experiment == "all" || *experiment == e.Name {
			todo = append(todo, e)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *experiment, choices)
		return 2
	}

	if *admin != "" {
		srv, addr, err := obs.Serve(*admin, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s\n", addr)
	}

	failed := false
	start := time.Now()
	for _, e := range todo {
		out, err := e.Run(bench.Options{Quick: *quick, FlightDir: *flightDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			failed = true
			continue
		}
		out.Render(os.Stdout)
		fmt.Println()
		if *jsonOut {
			path, err := bench.WriteReport(*outdir, out.Report)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
		if line := bench.FailureLine(e.Name, out.Gates); line != "" {
			fmt.Fprintln(os.Stderr, line)
			failed = true
		}
	}
	fmt.Printf("total bench time: %v\n", time.Since(start).Round(time.Millisecond))
	if failed {
		return 1
	}
	return 0
}
