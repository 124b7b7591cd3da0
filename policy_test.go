package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/record"
)

// TestValidateRejectsUnknownPolicy pins the no-silent-default contract: a
// typoed policy name must fail validation with an error that lists every
// valid policy, not fall back to some default generator.
func TestValidateRejectsUnknownPolicy(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Policy = "quicksort"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown policy name passed Validate")
	}
	for _, name := range Policies() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid policy %q", err, name)
		}
	}
	if _, err := New(func(a, b int64) bool { return a < b }, WithPolicy("quicksort")); err == nil {
		t.Fatal("New accepted an unknown policy name")
	}
}

func TestPoliciesListsAll(t *testing.T) {
	want := []string{"2wrs", "rs", "alternating", "quick", "auto"}
	got := Policies()
	if len(got) != len(want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Policies() = %v, want %v", got, want)
		}
	}
}

// TestPolicyNames: the policy name is the one generator selector, and every
// spelling policy.Parse accepts — the five names Policies lists, the two
// aliases, and the empty name of a hand-built config — selects the same
// generator through WithPolicy and through WithConfig. Every one of them
// is also a valid name for a durable sort, auto — whose probe state the
// checkpoints hold now — included.
func TestPolicyNames(t *testing.T) {
	want := map[string]string{"alt": "alternating", "lss": "quick", "": "2wrs"}
	for _, name := range Policies() {
		want[name] = name
	}
	recs := Dataset(DatasetRandom, 4000, 3)
	for name, policy := range want {
		s, err := New(func(a, b Record) bool { return a.Key < b.Key }, WithPolicy(name), WithMemoryRecords(500))
		if err != nil {
			t.Fatalf("New(WithPolicy(%q)): %v", name, err)
		}
		out, stats, err := s.SortSlice(context.Background(), recs)
		if err != nil || len(out) != len(recs) || stats.Policy != policy {
			t.Fatalf("New(WithPolicy(%q)): err=%v, %d records, Stats.Policy=%q, want %q", name, err, len(out), stats.Policy, policy)
		}
		out, stats, err = sortRecords(recs, Config{Policy: name, MemoryRecords: 500})
		if err != nil || !record.IsSorted(out) || len(out) != len(recs) || stats.Policy != policy {
			t.Fatalf("WithConfig(Config{Policy: %q}): err=%v, %d records, Stats.Policy=%q, want %q", name, err, len(out), stats.Policy, policy)
		}
	}
	for name := range want {
		if _, err := New(func(a, b int64) bool { return a < b }, WithPolicy(name), WithManifest()); err != nil {
			t.Fatalf("%q under WithManifest: %v, want it accepted", name, err)
		}
	}
}

// TestNewDefaultsToAuto: the generic constructor and DefaultConfig adapt by
// default, while WithPolicy pins a generator and WithConfig brings the
// config's own.
func TestNewDefaultsToAuto(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	s, err := New(less)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Policy; got != "auto" {
		t.Fatalf("default policy = %q, want auto", got)
	}
	s, err = New(less, WithPolicy("rs"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Policy; got != "rs" {
		t.Fatalf("WithPolicy left policy %q, want rs", got)
	}
	s, err = New(less, WithConfig(DefaultConfig(1000)))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Policy; got != "auto" {
		t.Fatalf("WithConfig(DefaultConfig) left policy %q, want auto", got)
	}
	cfg := DefaultConfig(1000)
	cfg.Policy = "2wrs"
	if s, err = New(less, WithConfig(cfg)); err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Policy; got != "2wrs" {
		t.Fatalf("WithConfig left policy %q, want the config's own (2wrs)", got)
	}
}

// TestWithPolicyFixedSelection checks that the named fixed policies really
// drive run generation: classic RS collapses an ascending stream into one
// run, and the stats name the policy that ran.
func TestWithPolicyFixedSelection(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	in := make([]int64, 10000)
	for i := range in {
		in[i] = int64(i)
	}
	for _, name := range []string{"rs", "2wrs", "auto"} {
		s, err := New(less, WithPolicy(name), WithMemoryRecords(500))
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s.SortSlice(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("%s: %d records out", name, len(out))
		}
		if stats.Runs != 1 {
			t.Fatalf("%s on sorted input: %d runs, want 1", name, stats.Runs)
		}
		if stats.Policy != name {
			t.Fatalf("Stats.Policy = %q, want %q", stats.Policy, name)
		}
	}
	// The descending contrast: alternating absorbs the trend that pins
	// classic RS to memory-sized runs.
	rev := make([]int64, 10000)
	for i := range rev {
		rev[i] = int64(len(rev) - i)
	}
	runs := map[string]int{}
	for _, name := range []string{"rs", "alternating"} {
		s, err := New(less, WithPolicy(name), WithMemoryRecords(500))
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := s.SortSlice(context.Background(), rev)
		if err != nil {
			t.Fatal(err)
		}
		runs[name] = stats.Runs
	}
	if runs["rs"] < 3*runs["alternating"] {
		t.Fatalf("descending input: rs=%d runs vs alternating=%d, want ≥3x contrast", runs["rs"], runs["alternating"])
	}
}
