// Onionbench prints the paper-reproduction experiment tables: the
// Fig. 1 / Fig. 2 reproductions (E1, E2), the quantified claims
// (E3..E10) and the planned-vs-sequential query comparison (E11), as
// listed in bench.Experiments. Served-system numbers come from
// benchmark/, which drives the real daemon.
//
//	onionbench              # run everything
//	onionbench -exp E3,E11  # selected experiments
//	onionbench -list        # list experiments without running them
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment ids, comma-separated (E1..E11); empty runs all")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e)
		}
		return
	}
	exps := bench.Experiments
	if *exp != "" {
		exps = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "onionbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	for i, e := range exps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(e.Run().Render())
	}
}
