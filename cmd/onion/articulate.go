package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	onion "repro"
)

// artFlags are the common flags of articulate/union/intersect/diff/query.
type artFlags struct {
	fs      *flag.FlagSet
	left    *string
	right   *string
	rules   *string
	name    *string
	inherit *bool
	lenient *bool
	derive  *bool
}

func newArtFlags(cmd string) *artFlags {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	return &artFlags{
		fs:      fs,
		left:    fs.String("left", "", "left ontology file"),
		right:   fs.String("right", "", "right ontology file"),
		rules:   fs.String("rules", "", "articulation rule file"),
		name:    fs.String("name", "articulation", "articulation ontology name"),
		inherit: fs.Bool("inherit", false, "inherit structure from the sources (§4.2)"),
		lenient: fs.Bool("lenient", false, "skip rules with unknown terms instead of failing"),
		derive:  fs.Bool("derive", false, "let the inference engine derive additional rules (§2.4)"),
	}
}

// build loads both sources and generates the articulation.
func (af *artFlags) build() (*onion.System, *onion.GenerateResult, error) {
	if *af.left == "" || *af.right == "" {
		return nil, nil, fmt.Errorf("need -left and -right")
	}
	l, err := loadOntology(*af.left, "")
	if err != nil {
		return nil, nil, err
	}
	r, err := loadOntology(*af.right, "")
	if err != nil {
		return nil, nil, err
	}
	set := onion.NewRuleSet()
	if *af.rules != "" {
		if set, err = loadRules(*af.rules); err != nil {
			return nil, nil, err
		}
	}
	sys := onion.NewSystem()
	if err := sys.Register(l); err != nil {
		return nil, nil, err
	}
	if err := sys.Register(r); err != nil {
		return nil, nil, err
	}
	if *af.derive {
		derived, err := sys.InferRules(l.Name(), r.Name(), set)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range derived {
			fmt.Fprintf(os.Stderr, "derived rule: %s\n", d.Rule)
			set.Add(d.Rule)
		}
	}
	res, err := sys.Articulate(*af.name, l.Name(), r.Name(), set, onion.GenerateOptions{
		InheritStructure: *af.inherit,
		Lenient:          *af.lenient,
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, res, nil
}

func reportDiagnostics(res *onion.GenerateResult) {
	for _, sk := range res.Skipped {
		fmt.Fprintf(os.Stderr, "skipped rule: %s (%s)\n", sk.Rule, sk.Reason)
	}
	for _, fn := range res.MissingFuncs {
		fmt.Fprintf(os.Stderr, "conversion function not registered: %s (bridge generated anyway)\n", fn)
	}
}

func cmdArticulate(args []string) error {
	af := newArtFlags("articulate")
	dot := af.fs.Bool("dot", false, "render the articulation ontology as DOT")
	summary := af.fs.Bool("summary", false, "render an expert-review summary (tree + grouped bridges)")
	_ = af.fs.Parse(args)
	_, res, err := af.build()
	if err != nil {
		return err
	}
	reportDiagnostics(res)
	switch {
	case *dot:
		fmt.Print(res.Art.Ont.Graph().DOT())
	case *summary:
		fmt.Print(onion.RenderArticulation(res.Art, onion.DefaultViewOptions()))
	default:
		fmt.Print(res.Art)
	}
	return nil
}

func cmdAlgebra(op string, args []string) error {
	af := newArtFlags(op)
	swap := af.fs.Bool("swap", false, "compute right − left instead (diff only)")
	mode := af.fs.String("mode", "formal", "difference semantics: formal | example")
	out := af.fs.String("out", "-", "output file for the result ontology")
	outformat := af.fs.String("outformat", "adjacency", "output format")
	_ = af.fs.Parse(args)
	sys, res, err := af.build()
	if err != nil {
		return err
	}
	reportDiagnostics(res)

	var result *onion.Ontology
	switch op {
	case "union":
		u, err := sys.Union(*af.name)
		if err != nil {
			return err
		}
		result = u.Ont
	case "intersect":
		if result, err = sys.Intersection(*af.name); err != nil {
			return err
		}
	case "diff":
		m := onion.DiffFormal
		if *mode == "example" {
			m = onion.DiffExample
		} else if *mode != "formal" {
			return fmt.Errorf("unknown -mode %q", *mode)
		}
		if result, err = sys.Difference(*af.name, *swap, m); err != nil {
			return err
		}
	}
	format, err := parseFormat(*outformat)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return onion.WriteOntology(w, result, format)
}

func cmdQuery(args []string) error {
	af := newArtFlags("query")
	leftKB := af.fs.String("leftkb", "", "fact file for the left source")
	rightKB := af.fs.String("rightkb", "", "fact file for the right source")
	qtext := af.fs.String("q", "", "query text")
	explain := af.fs.Bool("explain", false, "show the reformulation plan instead of executing")
	_ = af.fs.Parse(args)
	if *qtext == "" {
		return fmt.Errorf("need -q")
	}
	sys, res, err := af.build()
	if err != nil {
		return err
	}
	reportDiagnostics(res)
	// Register the fact files before explaining OR executing: the
	// planner's scan estimates come from the KB indexes, so an explain
	// without the KBs would show every fact estimate as zero.
	if *leftKB != "" {
		store, err := loadKB(*leftKB, res.Art.Sources[0])
		if err != nil {
			return err
		}
		if err := sys.RegisterKB(store); err != nil {
			return err
		}
	}
	if *rightKB != "" {
		store, err := loadKB(*rightKB, res.Art.Sources[1])
		if err != nil {
			return err
		}
		if err := sys.RegisterKB(store); err != nil {
			return err
		}
	}
	if *explain {
		q, err := onion.ParseQuery(*qtext)
		if err != nil {
			return err
		}
		plan, _, err := sys.Explain(context.Background(), *af.name, q, onion.QueryOptions{}, false)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	out, err := sys.Query(*af.name, *qtext)
	if err != nil {
		return err
	}
	for i, v := range out.Vars {
		if i > 0 {
			fmt.Print("\t")
		}
		fmt.Printf("?%s", v)
	}
	fmt.Println()
	for _, row := range out.Rows {
		for i, v := range row {
			if i > 0 {
				fmt.Print("\t")
			}
			fmt.Print(v.Format())
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "%d rows (%d source scans, %d conversions)\n",
		len(out.Rows), out.Stats.SourceScans, out.Stats.Conversions)
	return nil
}
