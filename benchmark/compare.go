package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (fullReport, error) {
	var f fullReport
	body, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(body, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one end-to-end metric of the new run against the base
// run: worse by more than the metric's bound is a regression, better by
// more than it an improvement, anything between is noise.
func verdict(d metricDef, base, next float64) string {
	worse := next/base - 1
	if d.better == "higher" {
		worse = 1 - next/base
	}
	switch {
	case worse > d.bound:
		return "regressed"
	case worse < -d.bound:
		return "improved"
	}
	return "ok"
}

// compareReports prints, for every workload and end-to-end metric, both
// values, their ratio (new ÷ base), the bound and the verdict. It
// returns an error when any metric regressed or any workload failed
// more operations than before.
func compareReports(out io.Writer, basePath, nextPath string) error {
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	next, err := readReport(nextPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base %s (commit %s, seed %d)   new %s (commit %s, seed %d)\n",
		basePath, base.Commit, base.Seed, nextPath, next.Commit, next.Seed)
	fmt.Fprintf(out, "%-17s %-14s %12s %12s %9s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		b, okB := base.Workloads[w.name]
		n, okN := next.Workloads[w.name]
		if !okB || !okN {
			fmt.Fprintf(out, "%-17s missing from a report\n", w.name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			bv, nv := b.EndToEnd[d.name].Value, n.EndToEnd[d.name].Value
			v := verdict(d, bv, nv)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(out, "%-17s %-14s %12.4f %12.4f %9.4f %5.0f%%  %s\n", w.name, d.name, bv, nv, nv/bv, d.bound*100, v)
		}
		v := "ok"
		if n.FailRatio > b.FailRatio {
			v = "regressed"
			bad++
		}
		fmt.Fprintf(out, "%-17s %-14s %12.6f %12.6f %9s %6s  %s\n", w.name, "fail_ratio", b.FailRatio, n.FailRatio, "", "0", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}
