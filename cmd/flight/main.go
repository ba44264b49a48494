// Command flight inspects and merges postmortem bundles dumped by the
// flight recorder (DESIGN.md §11). A node dumps a bundle when the
// online checker flags a violation, on panic, on SIGQUIT, or on demand
// via POST /flight/dump; this tool is the analysis side: enumerate the
// bundles of a cluster data-dir, inspect one, or merge all of them into
// a single causally-ordered cross-node timeline and replay their traces
// through the offline property checker.
//
// Usage:
//
//	flight list <root>
//	flight show [-logs N] <bundle-dir>
//	flight merge [-check] [-source log|trace] [-node NODE] <root>...
//
// list enumerates bundle directories under root (one per dump, nested
// per node). show prints one bundle's metadata, checker status, and log
// tail. merge loads every bundle under the given roots, merges logs and
// trace events by Lamport clock into one timeline on stdout, and with
// -check replays the traces through the online checker's invariants (the
// definitions the bounded verifier also runs; catalogue in DESIGN.md §4),
// armed with the deployment facts the bundles' settings fix — so a
// violation is re-detectable from the bundles alone — and says per
// invariant what it checked.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"shadowdb/internal/deploy"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = list(args[1:])
	case "show":
		err = show(os.Stdout, args[1:])
	case "merge":
		err = merge(args[1:])
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  flight list <root>
  flight show [-logs N] <bundle-dir>
  flight merge [-check] [-source log|trace] [-node NODE] <root>...`)
}

// list enumerates the bundles under one root.
func list(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		usage()
		return fmt.Errorf("flight list: exactly one root directory")
	}
	dirs, err := obs.ListBundles(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		fmt.Println("no bundles")
		return nil
	}
	for _, d := range dirs {
		b, err := obs.LoadBundle(d)
		if err != nil {
			fmt.Printf("%-50s  UNREADABLE: %v\n", d, err)
			continue
		}
		at := time.Unix(0, b.Meta.WallAt).UTC().Format(time.RFC3339)
		fmt.Printf("%s  node=%-8s reason=%-28s logs=%-6d trace=%-6d %s\n",
			at, b.Meta.Node, b.Meta.Reason, len(b.Logs), len(b.Trace), d)
	}
	return nil
}

// show prints one bundle in full.
func show(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	tail := fs.Int("logs", 20, "log records to print (0 for all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		usage()
		return fmt.Errorf("flight show: exactly one bundle directory")
	}
	b, err := obs.LoadBundle(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bundle   %s\n", b.Dir)
	fmt.Fprintf(w, "node     %s\n", b.Meta.Node)
	fmt.Fprintf(w, "reason   %s\n", b.Meta.Reason)
	fmt.Fprintf(w, "dumped   %s (lc=%d, clock=%d)\n",
		time.Unix(0, b.Meta.WallAt).UTC().Format(time.RFC3339Nano), b.Meta.LC, b.Meta.At)
	if b.Meta.GitSHA != "" {
		fmt.Fprintf(w, "git      %s\n", b.Meta.GitSHA)
	}
	fmt.Fprintf(w, "go       %s (pid %d)\n", b.Meta.GoVersion, b.Meta.PID)
	// The node's whole deployment (deploy.Node.Settings), by flag name.
	keys := make([]string, 0, len(b.Meta.Config))
	for k := range b.Meta.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "config   %s=%s\n", k, b.Meta.Config[k])
	}
	fmt.Fprintf(w, "logs     %d records (%d dropped by the ring)\n", len(b.Logs), b.LogDropped)
	fmt.Fprintf(w, "trace    %d events\n", len(b.Trace))
	fmt.Fprintf(w, "metrics  %d counters, %d gauges, %d histograms, %d rate windows\n",
		len(b.Metrics.Counters), len(b.Metrics.Gauges), len(b.Metrics.Histograms), len(b.Rates))
	if len(b.Checker) > 0 {
		fmt.Fprintf(w, "checker  %s\n", b.Checker)
	}
	logs := b.Logs
	if *tail > 0 && len(logs) > *tail {
		logs = logs[len(logs)-*tail:]
		fmt.Fprintf(w, "\nlast %d log records:\n", *tail)
	} else if len(logs) > 0 {
		fmt.Fprintln(w, "\nlog records:")
	}
	for _, r := range logs {
		line := fmt.Sprintf("  lc=%-6d %-5s [%s] %s", r.LC, r.Level, r.Component, r.Msg)
		if r.Trace != "" {
			line += " trace=" + r.Trace
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// merge loads every bundle under the given roots, prints the merged
// cross-node timeline, and optionally replays the traces through the
// checker's invariants.
func merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	check := fs.Bool("check", false, "replay traces through the offline property checker")
	source := fs.String("source", "", "restrict timeline to one source: log|trace")
	node := fs.String("node", "", "restrict timeline to one node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		usage()
		return fmt.Errorf("flight merge: at least one root directory")
	}
	var bundles []*obs.Bundle
	for _, root := range fs.Args() {
		dirs, err := obs.ListBundles(root)
		if err != nil {
			return err
		}
		for _, d := range dirs {
			b, err := obs.LoadBundle(d)
			if err != nil {
				return fmt.Errorf("flight merge: %s: %w", d, err)
			}
			bundles = append(bundles, b)
		}
	}
	if len(bundles) == 0 {
		return fmt.Errorf("flight merge: no bundles under %v", fs.Args())
	}
	res := collect(bundles)
	fmt.Fprintf(os.Stderr, "%d bundles from %d nodes\n", len(bundles), len(res.Nodes))

	for _, e := range obs.MergeTimeline(bundles...) {
		if *source != "" && e.Source != *source {
			continue
		}
		if *node != "" && string(e.Node) != *node {
			continue
		}
		fmt.Println(e)
	}

	if *check {
		return report(os.Stderr, res, facts(bundles))
	}
	return nil
}

// collect merges the bundles' trace windows.
func collect(bundles []*obs.Bundle) dist.Result {
	c := dist.NewCollector()
	c.AddBundles(bundles...)
	return c.Collect()
}

// facts folds the deployment facts of every bundle that records its
// node's settings (deploy.Node.Settings; a simulated run's records only
// its experiment): the lease window the nodes share, the initial
// membership a charter node started from, and the largest admission bound.
func facts(bundles []*obs.Bundle) (f dist.Facts) {
	for _, b := range bundles {
		n, fs := deploy.Default(), flag.NewFlagSet("", flag.ContinueOnError)
		n.RegisterFlags(fs)
		ok := b.Meta.Config["id"] != ""
		for k, v := range b.Meta.Config {
			ok = ok && fs.Set(k, v) == nil
		}
		if !ok {
			continue
		}
		// The bundle names its topology file; without it the initial epoch
		// is unknown (Facts of a nil cluster).
		cl, _ := n.Load()
		nf := n.Facts(cl)
		if nf.LeaseDur > 0 {
			f.LeaseDur, f.MaxStale = nf.LeaseDur, nf.MaxStale
		}
		if nf.Alpha > 0 && !n.Joiner {
			f.Initial, f.Alpha = nf.Initial, nf.Alpha
		}
		f.MaxQueue = max(f.MaxQueue, nf.MaxQueue)
	}
	return f
}

// report replays the collected traces through the checker's invariants
// armed with f and says what was checked: one line per invariant that
// ran, one per invariant the bundles lack the deployment fact for, one
// per violation.
func report(w io.Writer, res dist.Result, f dist.Facts) error {
	st, err := res.Check(f)
	if err != nil { // a trace ring wrapped: nothing can be certified
		fmt.Fprintf(w, "replay: %v\n", err)
		return fmt.Errorf("flight merge: cannot check: %w", err)
	}
	for _, inv := range st.Invariants {
		if inv.Skipped != "" {
			fmt.Fprintf(w, "replay: skipped %s: %s not in the bundles\n", inv.Name, inv.Skipped)
		} else {
			fmt.Fprintf(w, "replay: checked %s over %d events\n", inv.Name, inv.Seen)
		}
	}
	for _, v := range st.Violations {
		fmt.Fprintf(w, "replay: VIOLATION: %v\n", v)
	}
	if len(st.Violations) > 0 {
		return fmt.Errorf("flight merge: properties violated")
	}
	return nil
}
