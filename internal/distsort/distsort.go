// Package distsort is what is left of a range-partitioned sharded sort: a
// shell that runs the one plain sort. Run generation puts cores to work
// through lanes (extsort.Config.Lanes), which beat the shards on the default
// configuration, so the shard router, the partition pass and the per-shard
// manifests are gone (DESIGN.md §15). Sort and Config stay so that callers
// written against them still build.
//
// Deprecated: call extsort.Sort.
package distsort

import (
	"repro/internal/extsort"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Config is a sort's configuration. Only Extsort is read.
type Config struct {
	// Shards is ignored.
	Shards int
	// SampleLimit is ignored.
	SampleLimit int
	// Extsort is the sort's configuration.
	Extsort extsort.Config
}

// Sort is extsort.Sort under cfg.Extsort.
func Sort[T any](src stream.Reader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops extsort.Ops[T]) (extsort.Stats, error) {
	return extsort.Sort(src, dst, fs, cfg.Extsort, ops)
}
