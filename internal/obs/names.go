package obs

// Metric names shared by every instrumented layer, so the extsort driver,
// the merge engine and the CLIs agree on one namespace. The full table
// with semantics lives in DESIGN.md §13.
const (
	// MRecordsIn counts records read from the sort's input.
	MRecordsIn = "extsort_records_in_total"
	// MRecordsOut counts records delivered by the final merge.
	MRecordsOut = "extsort_records_out_total"
	// MRuns counts sorted runs emitted by generation.
	MRuns = "extsort_runs_total"
	// MRunLength is the distribution of run lengths in records.
	MRunLength = "extsort_run_length_records"
	// MRunsRecovered counts runs recovered from a durable manifest by a
	// resumed sort instead of being regenerated.
	MRunsRecovered = "extsort_runs_recovered_total"
	// MCheckpointSeconds is the distribution of per-boundary checkpoint
	// wall time — the manifest append that commits the run's files; its
	// _sum is the durable sort's total checkpoint time and its _count the
	// number of boundaries.
	MCheckpointSeconds = "extsort_checkpoint_seconds"
	// MMergeOps counts individual k-way merge operations (intermediate
	// and final).
	MMergeOps = "extsort_merge_ops_total"
	// MMergeFanIn is the distribution of merge-operation fan-in.
	MMergeFanIn = "extsort_merge_fan_in"
	// MMergeRecordsMoved counts records moved by intermediate merges.
	MMergeRecordsMoved = "extsort_merge_records_moved_total"
	// MHeapSwaps counts element swaps performed by selection
	// partitioning.
	MHeapSwaps = "extsort_heap_swaps_total"
	// MPhaseSeconds is the per-phase wall time distribution, labelled
	// with the phase's name in Stats.Phases: "generate" (or "resume", a
	// committed adoption's) and "merge".
	MPhaseSeconds = "extsort_phase_seconds"

	// MSpillRawBytes counts bytes written to spill storage.
	MSpillRawBytes = "extsort_spilled_raw_bytes_total"
	// MReadRawBytes counts bytes read back from spill storage.
	MReadRawBytes = "extsort_read_raw_bytes_total"
	// MSpillBlocksWritten counts spill blocks written.
	MSpillBlocksWritten = "extsort_spill_blocks_written_total"
	// MSpillBlocksRead counts spill blocks read.
	MSpillBlocksRead = "extsort_spill_blocks_read_total"
	// MSpillVerifyFailures counts checksum verification failures on
	// spill reads.
	MSpillVerifyFailures = "extsort_spill_verify_failures_total"
	// MShards counts range shards executed by sharded distribution
	// sorts (internal/distsort).
	MShards = "distsort_shards_total"
	// MShardRecords is the distribution of records routed to each range
	// shard by the partition pass.
	MShardRecords = "distsort_shard_records"
)

// Default bucket bounds for the registry's histograms.
var (
	// RunLengthBuckets covers run lengths from cache-sized batches to
	// tens of millions of records.
	RunLengthBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22, 1 << 24}
	// FanInBuckets covers merge fan-in up to the derived base width at a
	// 2^20-record budget (1,023); a wider one-pass merge counts in +Inf.
	FanInBuckets = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// PhaseSecondsBuckets covers per-phase wall time from milliseconds
	// to minutes.
	PhaseSecondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}
)
