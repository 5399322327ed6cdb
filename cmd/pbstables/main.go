// Command pbstables regenerates the tables and figures of the paper's
// evaluation, one per row of experiments.Artifacts, in table order.
// With no flags it produces everything; -only selects artifacts by ID.
//
// Usage:
//
//	pbstables                   # everything, default scale and 7 seeds
//	pbstables -only fig6,fig7   # only Figures 6 and 7
//	pbstables -seeds 3 -scale 1
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
	var (
		only  = flag.String("only", "", "comma-separated artifact IDs to print, in table order (default all)")
		scale = flag.Int("scale", 1, "workload iteration scale")
		seeds = flag.Int("seeds", 7, "number of seeds for multi-seed experiments")
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
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "pbstables: -seeds must be at least 1")
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

	opt := experiments.DefaultOptions()
	opt.Scale = *scale
	if *seeds < len(opt.Seeds) {
		opt.Seeds = opt.Seeds[:*seeds]
	}
	for _, a := range experiments.Artifacts {
		if !slices.Contains(want, a.ID) {
			continue
		}
		d, err := a.Run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbstables:", err)
			os.Exit(1)
		}
		fmt.Println(d)
	}
}
