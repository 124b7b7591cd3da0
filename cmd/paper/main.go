// Command paper reproduces the paper's evaluation: every table and figure
// in internal/exp's artefact list, as one markdown document on stdout.
//
// Usage:
//
//	paper list
//	paper <group>|all [-scale tiny|small|paper] [-only id,…]
//
// The groups are model (Table 2.1 and the §3.6 model of Fig 3.8), runlen
// (Table 5.13, Fig 5.4), anova (the Chapter 5 factorial: Tables 5.2-5.12,
// Figs 5.2 and 5.5-5.12) and time (the Chapter 6 simulated-disk sweeps,
// Figs 6.1-6.7). Seeds are fixed and times are simulated, so the output is
// a pure function of the arguments; EXPERIMENTS.md is
// `paper all -scale tiny`, and CI diffs the two.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		log.Fatalf("usage: paper list | paper <group>|all [-scale tiny|small|paper] [-only id,…] (groups: %s)",
			strings.Join(exp.Groups, ", "))
	}
	group := os.Args[1]
	if group == "list" {
		fmt.Print(exp.List())
		return
	}
	fs := flag.NewFlagSet("paper "+group, flag.ExitOnError)
	scale := fs.String("scale", "small", "experiment scale: tiny, small, paper")
	only := fs.String("only", "", "comma-separated artefact ids to run (see `paper list`); default the whole group")
	fs.Parse(os.Args[2:])
	p, err := exp.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	arts, err := exp.Select(group, ids)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("# Two-way Replacement Selection — reproduced tables and figures\n\n"+
		"Output of `go run ./cmd/paper %s`; not edited by hand.\n"+
		"Seeds are fixed and every time is simulated-disk time (DESIGN.md §2), so a\n"+
		"change that moves a run length or a simulated time shows as a diff here.\n\n"+
		"Scale %s: %+v\n\n", strings.Join(os.Args[1:], " "), *scale, p)
	s := &exp.Session{Params: p, Progress: func(line string) { fmt.Fprintln(os.Stderr, line) }}
	for _, a := range arts {
		section, err := a.Section(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(section)
	}
}
