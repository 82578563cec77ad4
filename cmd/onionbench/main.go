// Onionbench regenerates the experiment tables of DESIGN.md /
// EXPERIMENTS.md: the Fig. 1 / Fig. 2 reproductions (E1, E2) and the
// quantified claims (E3..E11, E14..E18). E12, E13 and E19 were ratios
// against executors that no longer exist; their numbers are frozen in
// BENCH_PR2/3/10.json.
//
//	onionbench                         # run everything
//	onionbench -exp E3                 # one experiment
//	onionbench -exp E11,E14,E15,E16,E17,E18 -json  # machine-readable results
//	onionbench -list                   # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment ids, comma-separated (E1..E11, E14..E18); empty runs all")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, t := range bench.All() {
			fmt.Printf("%-4s %s\n", t.ID, t.Title)
		}
		return
	}
	var tables []*bench.Table
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			t, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "onionbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			tables = append(tables, t)
		}
	} else {
		tables = bench.All()
	}
	if *asJSON {
		out, err := bench.ReportJSON(tables)
		if err != nil {
			fmt.Fprintf(os.Stderr, "onionbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.Render())
	}
}
