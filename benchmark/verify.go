package main

import (
	"errors"
	"fmt"
	"io"

	"repro"
	"repro/internal/record"
)

// The verifying Sink sits in the timed path of every sort the benchmark
// runs, so both sides of any comparison pay for it equally. It checks three
// things: the order (with the workload's own comparator), the element
// count, and an order-insensitive multiset fingerprint — the wrapping sum
// of a 64-bit hash per element — against the input's.

// fingerprint is the order-insensitive identity of a multiset of elements.
type fingerprint struct {
	n   int64
	sum uint64
}

func (f *fingerprint) add(h uint64) { f.n++; f.sum += h }

func fingerprintOf[T any](vals []T, hash func(T) uint64) fingerprint {
	var f fingerprint
	for _, v := range vals {
		f.add(hash(v))
	}
	return f
}

// mix64 is the splitmix64 finaliser: a cheap bijection on uint64 that
// spreads every input bit over the output.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashRecord hashes both fields, so a sort that drops or duplicates the
// payload is caught even when the keys survive.
func hashRecord(r record.Record) uint64 {
	return mix64(uint64(r.Key)*0x9e3779b97f4a7c15 ^ mix64(r.Aux))
}

// hashString is FNV-1a finished with mix64.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return mix64(h)
}

var errOutOfOrder = errors.New("benchmark: output out of order")

// verifySink consumes a sort's output through the batch protocol.
type verifySink[T any] struct {
	less func(a, b T) bool
	hash func(T) uint64
	got  fingerprint
	last T
}

func (s *verifySink[T]) Write(v T) error {
	if s.got.n > 0 && s.less(v, s.last) {
		return fmt.Errorf("%w at element %d", errOutOfOrder, s.got.n)
	}
	s.last = v
	s.got.add(s.hash(v))
	return nil
}

func (s *verifySink[T]) WriteBatch(src []T) error {
	for _, v := range src {
		if err := s.Write(v); err != nil {
			return err
		}
	}
	return nil
}

// check compares what the sink saw with the input's fingerprint.
func (s *verifySink[T]) check(want fingerprint) error {
	if s.got.n != want.n {
		return fmt.Errorf("benchmark: output has %d elements, input had %d", s.got.n, want.n)
	}
	if s.got.sum != want.sum {
		return fmt.Errorf("benchmark: output fingerprint %016x differs from the input's %016x", s.got.sum, want.sum)
	}
	return nil
}

// fingerprintSource fingerprints a streamed input as the sorter pulls it,
// for the footprint child, which never holds the input to fingerprint it
// up front.
type fingerprintSource[T any] struct {
	src  repro.Source[T]
	hash func(T) uint64
	seen fingerprint
}

func (s *fingerprintSource[T]) Read() (T, error) {
	v, err := s.src.Read()
	if err == nil {
		s.seen.add(s.hash(v))
	} else if err != io.EOF {
		err = fmt.Errorf("benchmark: input generator: %w", err)
	}
	return v, err
}
