// Command pbstables regenerates the tables and figures of the paper's
// evaluation, one per row of experiments.Artifacts, in table order.
// With no flags it produces everything; -only selects artifacts by ID.
// The selected artifacts simulate as one batch (experiments.Run), so
// nothing prints until every run is done.
//
// Usage:
//
//	pbstables                   # everything, default scale and 7 seeds
//	pbstables -only fig6,fig7   # only Figures 6 and 7
//	pbstables -seeds 3 -scale 1  # 1 to 7 seeds
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	opt := experiments.DefaultOptions()
	var (
		only  = flag.String("only", "", "comma-separated artifact IDs to print, in table order (default all)")
		scale = flag.Int("scale", 1, "workload iteration scale")
		seeds = flag.Int("seeds", len(opt.Seeds), fmt.Sprintf("number of seeds for multi-seed experiments (1 to %d)", len(opt.Seeds)))
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: pbstables [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(w, "artifacts:")
		for _, a := range experiments.Artifacts {
			fmt.Fprintf(w, "  %-10s %s\n", a.ID, a.Title)
		}
	}
	flag.Parse()
	if *seeds < 1 || *seeds > len(opt.Seeds) {
		fmt.Fprintf(os.Stderr, "pbstables: -seeds must be between 1 and %d\n", len(opt.Seeds))
		os.Exit(2)
	}
	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "pbstables: -scale must be at least 1")
		os.Exit(2)
	}

	var ids []string
	for _, a := range experiments.Artifacts {
		ids = append(ids, a.ID)
	}
	want := ids
	if *only != "" {
		want = strings.Split(*only, ",")
		for _, id := range want {
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "pbstables: unknown artifact %q; valid IDs: %s\n", id, strings.Join(ids, ","))
				os.Exit(2)
			}
		}
	}

	opt.Scale = *scale
	opt.Seeds = opt.Seeds[:*seeds]
	var arts []experiments.Artifact
	for _, a := range experiments.Artifacts {
		if slices.Contains(want, a.ID) {
			arts = append(arts, a)
		}
	}
	ds, err := experiments.Run(opt, arts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbstables:", err)
		os.Exit(1)
	}
	for _, d := range ds {
		fmt.Println(d)
	}
}
