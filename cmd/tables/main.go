// Command tables regenerates every table and figure of the paper's
// evaluation (Tufo & Fischer, SC'99). Each experiment prints the same rows
// or series the paper reports; see EXPERIMENTS.md for the mapping and the
// expected shape agreements.
//
// Usage:
//
//	tables -exp table1 [-quick]
//	tables -exp table2|table3|table4|fig3|fig4|fig6|fig8|faults|all
//	tables -exp scaling|precond     (not part of all)
//
// -quick shrinks resolutions/step counts so every experiment finishes in
// seconds to minutes; the full settings match the paper where feasible. An
// experiment that cannot produce its rows fails: tables names it on stderr
// and exits 1 (after running the rest, under -exp all).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, table3, table4, fig3, fig4, fig6, fig8, faults, scaling, precond or all (all leaves out scaling and precond)")
	quick := flag.Bool("quick", false, "reduced resolutions for fast runs")
	flag.Parse()

	experiments := map[string]func(bool) error{
		"table1":  table1,
		"table2":  table2,
		"table3":  table3,
		"table4":  table4,
		"fig3":    fig3,
		"fig4":    fig4,
		"fig6":    fig6,
		"fig8":    fig8,
		"faults":  faultsExp,
		"scaling": scaling,
		"precond": precondExp,
	}
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "table3", "table4", "fig3", "fig4", "fig6", "fig8", "faults"}
	} else if experiments[*exp] == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	failed := 0
	for _, name := range names {
		if len(names) > 1 {
			fmt.Printf("\n================ %s ================\n", name)
		}
		if err := experiments[name](*quick); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", name, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
