// dbsort simulates the database scenario that motivates the paper
// (§1, §5.2): a table is scanned in the order of column A while the sort
// operator needs the order of column B. When A and B are anticorrelated the
// sort input arrives reverse-sorted — the worst case for classic
// replacement selection (runs of exactly memory size, Theorem 3) and the
// best case for 2WRS (a single run, Theorem 4).
//
// The example builds such a table, feeds the scan through both algorithms
// under the same memory budget, and compares what reaches the merge phase.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"

	"repro"
)

// row is a table row with two anticorrelated columns.
type row struct {
	a, b int64
	id   uint64
}

// scanInAOrder yields records keyed by column B while the table is read in
// column-A order, which is exactly how a B-tree scan on A would feed a sort
// on B.
type scanInAOrder struct {
	rows []row
	pos  int
}

func (s *scanInAOrder) Read() (repro.Record, error) {
	if s.pos >= len(s.rows) {
		return repro.Record{}, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return repro.Record{Key: r.b, Aux: r.id}, nil
}

func main() {
	const (
		tableRows = 2_000_000
		memory    = 20_000 // 1% of the table
	)
	// Build the table: column A ascending, column B = C - A + noise
	// (anticorrelated, e.g. "price" vs "discount tier").
	rng := rand.New(rand.NewSource(7))
	rows := make([]row, tableRows)
	for i := range rows {
		a := int64(i) * 100
		rows[i] = row{
			a:  a,
			b:  int64(tableRows)*100 - a + rng.Int63n(90),
			id: uint64(i),
		}
	}

	fmt.Printf("table: %d rows, scanned in column-A order, sorting by column B\n", tableRows)
	fmt.Printf("memory budget: %d records (%.1f%% of the input)\n\n",
		memory, 100*float64(memory)/float64(tableRows))

	var out countingWriter
	for _, alg := range []string{"rs", "2wrs"} {
		cfg := repro.DefaultConfig(memory)
		cfg.Policy = alg
		out.n, out.last, out.sorted = 0, 0, true
		s, err := repro.New(repro.Record.Less, repro.WithConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		stats, err := s.Sort(context.Background(), &scanInAOrder{rows: rows}, &out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5v runs=%-6d avg run=%.2fx memory  merge passes=%d  total=%v  output sorted=%v\n",
			alg, stats.Runs, stats.AvgRunLength/float64(memory),
			stats.MergePasses, stats.Elapsed.Round(1e6), out.sorted)
	}
	fmt.Println("\n2WRS turns the anticorrelated scan into a single run: the merge phase")
	fmt.Println("becomes a plain copy, which is where the paper's 2.5x speedup comes from.")
}

// countingWriter verifies the output order on the fly without storing it.
type countingWriter struct {
	n      int64
	last   int64
	sorted bool
}

func (w *countingWriter) Write(r repro.Record) error {
	if w.n > 0 && r.Key < w.last {
		w.sorted = false
	}
	w.last = r.Key
	w.n++
	return nil
}
