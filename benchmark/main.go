// Command benchmark is the repository's end-to-end benchmark: one process
// hosts a complete ShadowDB cluster on loopback TCP with fsynced data
// directories, drives it closed-loop from sixteen logical clients, checks
// the outcome, and reports end-to-end and per-layer metrics. See
// README.md in this directory.
//
//	go run -C benchmark .                       # every workload, 30 s each
//	go run -C benchmark . -trace 1              # the traced run: per-layer table, span files
//	go run -C benchmark . -layers               # layer microbenchmarks
//	go run -C benchmark . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/core"
	"shadowdb/internal/obs"
)

func registerWireTypes() {
	core.RegisterWireTypes()
	broadcast.RegisterWireTypes()
	synod.RegisterWireTypes()
	twothird.RegisterWireTypes()
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	only := fs.String("workload", "", "run one workload (default: all): smr-bank-write|smr-tpcc|smr-bank-read95|pbr-bank-write")
	seed := fs.Int64("seed", 1, "request generator seed")
	seconds := fs.Int("seconds", 30, "measuring time per workload: a third solo (1 client), two thirds loaded (16 clients)")
	trace := fs.Int("trace", 0, "1 = the traced run: decorators installed, per-layer metrics, span files under out/")
	layers := fs.Bool("layers", false, "run the layer microbenchmarks and exit")
	cmp := fs.Bool("compare", false, "compare two results files (old.json new.json), or sets 0 and 1 of one file")
	out := fs.String("out", "", "append each run's result to this results file")
	set := fs.Int("set", 0, "set number stamped on results written to -out")
	sha := fs.String("sha", "", "git SHA recorded when -out creates the file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	outDir := filepath.Join(root, "benchmark", "out")

	if *cmp {
		worse, err := runCompare(os.Stdout, root, fs.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *layers {
		if err := runLayers(os.Stdout, outDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	run := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *only)
			return 2
		}
		run = []*workload{w}
	}
	if *seconds < 3 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 3")
		return 2
	}

	// Shipped defaults: metrics on, tracing off, log level warn.
	obs.Default.SetLogLevel(obs.LevelWarn)
	obs.Default.SetLogStream(os.Stderr)
	registerWireTypes()

	warm, solo, loaded := phases(*seconds)
	fmt.Printf("closed loop, no injected message delay: latency is CPU + fsync + scheduler on loopback, the sandbox's own\n")
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s; batch=%d batch-delay=%v pipeline=%d fsync=%s group-commit=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), batchSize, batchDelay, pipeline, fsyncPolicy, groupCommit)
	code := 0
	for _, w := range run {
		fmt.Printf("\n== %s  seed %d  warm-up %v, solo %v (1 client), loaded %v (%d clients), trace %d\n",
			w.name, *seed, warm, solo, loaded, numClients, *trace)
		o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, setups: minSetups, outDir: outDir, log: os.Stdout}
		if o.traced {
			o.setups = 1 // setup_s comes from the untraced run
		}
		res, err := runWorkload(w, o)
		if err == nil && o.traced {
			err = microMetrics(res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		res.Set = *set
		printMetrics(os.Stdout, res)
		for _, e := range res.Errors {
			fmt.Printf("  FAILED CHECK: %s\n", e)
		}
		if !res.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendResult(*out, *sha, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		// The machine-readable result: always the last line of a workload.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	return code
}
