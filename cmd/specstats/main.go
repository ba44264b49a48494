// Command specstats prints Table I of the paper from the live
// specifications: class-AST sizes, generated/optimized GPM program sizes,
// and the automatic/manual property split. With -verify it also runs the
// whole property suite (the mechanical substitute for the paper's Nuprl
// proofs), and with -render it prints each specification's logical form.
package main

import (
	"flag"
	"fmt"
	"os"

	"shadowdb/internal/bench"
	"shadowdb/internal/loe"
)

func main() {
	os.Exit(run())
}

func run() int {
	verifyAll := flag.Bool("verify", false, "run every registered correctness property")
	render := flag.Bool("render", false, "print the logical form of each specification")
	flag.Parse()

	rows := bench.Table1()
	bench.RenderTable1(os.Stdout, rows)

	if *render {
		for _, r := range rows {
			fmt.Printf("\n%s:\n  %s\n", r.Spec.Name, loe.Render(r.Spec.Main))
		}
	}

	if *verifyAll {
		fmt.Println("\nrunning the property suite (bounded checking in place of Nuprl proofs)...")
		suite := bench.PropertySuite()
		for _, p := range suite.Properties() {
			if err := p.Check(); err != nil {
				fmt.Printf("  FAIL %-12s %-35s [%s]: %v\n", p.Module, p.Name, p.Mode, err)
				return 1
			}
			fmt.Printf("  ok   %-12s %-35s [%s]\n", p.Module, p.Name, p.Mode)
		}
	}
	return 0
}
