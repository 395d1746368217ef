package engine

import (
	"fmt"
	"math/bits"
)

// CheckpointConfig enables tile-granular progress snapshots during an
// enumeration run. The driver forces the prefix-tile schedule (even at
// Workers <= 1), commits each tile's counter delta as the tile finishes,
// and hands a consistent Snapshot to OnSnapshot every EveryTiles commits
// plus once when the run ends — completed, cancelled, or aborted by a
// worker error — so the last snapshot always covers exactly the committed
// tiles. That final snapshot is skipped when the last one OnSnapshot
// accepted already covers every committed tile. After it, taken or
// skipped, the run calls Flush, so it returns only once the last
// snapshot is durable.
//
// In checkpoint mode delivery to Options.OnTuple or to NewOnTuple's
// functions is transactional: a tile's surviving tuples are logged while
// the tile runs and delivered only when it commits, so the set of
// delivered tuples is exactly the union of committed tiles — an
// interrupted run plus its resume delivers each survivor exactly once. Every snapshot holds the same invariant: it is
// taken only while no worker is between starting a tile's delivery and
// committing that tile, so the tuples delivered when OnSnapshot runs are
// exactly those of the snapshot's committed tiles.
//
// A stopped run commits whole tiles too. An Options.OnTuple that returns
// false still commits the tile it was delivering, and the run reports
// Stopped; that tile's remaining survivors are never delivered, not even
// after a resume. A tile whose run ends after the stop is not committed,
// so a resume delivers it whole.
//
// Checkpointing rejects Options.Limit; see there.
type CheckpointConfig struct {
	// EveryTiles is the snapshot cadence in committed tiles; <= 0 means 1
	// (snapshot after every tile).
	EveryTiles int
	// OnSnapshot receives each snapshot. The snapshot and its slices are
	// fresh copies that the receiver may keep. A returned error aborts the
	// run. Without Flush, OnSnapshot must persist the snapshot before it
	// returns.
	//
	// A due snapshot waits for every in-flight tile delivery to commit,
	// and deliveries wait while OnSnapshot runs, so state that OnTuple
	// updates is quiescent during the call. So is the state of every
	// function NewOnTuple made: OnSnapshot may read it although the
	// functions take no lock, provided the list of those functions is
	// guarded, since workers that start late add to it during the run. A
	// callback must therefore never wait on a snapshot (for example on a
	// signal OnSnapshot sends): the snapshot waits for that callback to
	// return, so the run deadlocks. For the same reason every worker
	// stalls at its next delivery until OnSnapshot returns, so a receiver
	// that writes files should hand the write to another goroutine and set
	// Flush.
	OnSnapshot func(s *Snapshot) error
	// Flush, if set, lets OnSnapshot return before its snapshot is
	// durable. The engine calls it once per run that calls OnSnapshot,
	// after the final snapshot is taken or skipped, on every exit path;
	// it waits until the newest snapshot OnSnapshot accepted is durable
	// and returns the first error persisting any of the run's snapshots.
	// The run returns that error unless an earlier one ended it. A
	// receiver should also return a persist error from its next
	// OnSnapshot, so the error aborts the run.
	Flush func() error
}

// Snapshot is one consistent checkpoint of a running enumeration: which
// tiles have committed and the merged counters of exactly those tiles.
// Tiling-phase counters (prelude and prefix-level visits/checks) are NOT
// included — they are recomputed deterministically when the run is
// resumed, so folding them in here would double-count.
type Snapshot struct {
	// SplitDepth is the realized tiling depth: tiles are value prefixes of
	// the first SplitDepth loops. A resume must force this depth so the
	// tile set (all surviving depth-K prefixes, path-independent) matches.
	SplitDepth int
	// Tiles is the total tile count of the schedule.
	Tiles int
	// Completed is the number of committed tiles (popcount of Done).
	Completed int
	// Done is the committed-tile bitmap, bit i = tile i, 64 tiles a word.
	Done []uint64
	// TileStats holds the merged counters of the committed tiles only.
	TileStats *Stats
}

// ResumeState restores a run from a Snapshot (typically loaded from a
// checkpoint file whose plan fingerprint already matched). The driver
// re-runs the tiling phase — deterministic, so its counters are identical
// — then enumerates only the tiles not marked done, pre-merging TileStats
// into the result.
type ResumeState struct {
	// SplitDepth is the snapshot's realized tiling depth, forced onto the
	// resumed run regardless of Options.SplitDepth or worker count.
	SplitDepth int
	// Tiles is the snapshot's tile count, cross-checked against the
	// regenerated tile set.
	Tiles int
	// Done is the committed-tile bitmap from the snapshot.
	Done []uint64
	// TileStats are the committed tiles' merged counters from the snapshot.
	TileStats *Stats
}

// validate cross-checks the resume state against the regenerated tile set
// and the program shape; a mismatch means the checkpoint belongs to a
// different plan.
func (r *ResumeState) validate(tiles *tileSet, st *Stats) error {
	if tiles.n != r.Tiles || (tiles.n > 0 && tiles.depth != r.SplitDepth) {
		return fmt.Errorf("engine: checkpoint does not match this plan: snapshot has %d tiles at split depth %d, regenerated schedule has %d at depth %d",
			r.Tiles, r.SplitDepth, tiles.n, tiles.depth)
	}
	words := (tiles.n + 63) / 64
	if len(r.Done) != words || (tiles.n%64 != 0 && r.Done[words-1]>>(tiles.n%64) != 0) {
		return fmt.Errorf("engine: checkpoint bitmap does not match this plan: %d words marking %d tiles done, want %d words over %d tiles",
			len(r.Done), r.CompletedTiles(), words, tiles.n)
	}
	ts := r.TileStats
	if ts == nil ||
		len(ts.LoopVisits) != len(st.LoopVisits) ||
		len(ts.Checks) != len(st.Checks) ||
		len(ts.Kills) != len(st.Kills) ||
		len(ts.BoundsNarrowed) != len(st.BoundsNarrowed) ||
		len(ts.IterationsSkipped) != len(st.IterationsSkipped) {
		return fmt.Errorf("engine: checkpoint counters do not match the program shape")
	}
	return nil
}

// CompletedTiles returns the popcount of the done bitmap: how many tiles
// the snapshot already covers.
func (r *ResumeState) CompletedTiles() int {
	n := 0
	for _, w := range r.Done {
		n += bits.OnesCount64(w)
	}
	return n
}
