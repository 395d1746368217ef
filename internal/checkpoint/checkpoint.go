// Package checkpoint persists enumeration progress so long sweeps survive
// timeouts, cancellation, and host-callback faults. A checkpoint file is
// one JSON document: a plan fingerprint (so a resume against a different
// spec, split depth, chunk size, or protocol is rejected instead of
// silently corrupting the survivor set), the completed-tile bitmap and
// merged counters of an engine.Snapshot, and an optional tool-owned blob
// for layered state (e.g. the autotuner's top-K heap). Files are written
// atomically — marshal to a sibling temp file, fsync, rename — so a crash
// mid-write leaves the previous snapshot intact. A run's writer
// (NewWriter) saves its snapshots on a background goroutine, so the
// run's workers do not wait for the disk, and the run returns once its
// last snapshot is on disk.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/speclang"
)

// Version is the checkpoint file format version; bump on incompatible
// layout changes.
const Version = 1

// File is the on-disk checkpoint document.
type File struct {
	// Version is the format version (see Version).
	Version int `json:"version"`
	// Fingerprint identifies the plan this snapshot belongs to; a resume
	// must present an identical fingerprint.
	Fingerprint string `json:"fingerprint"`
	// SplitDepth, Tiles, Completed, Done, and Stats mirror engine.Snapshot.
	SplitDepth int           `json:"split_depth"`
	Tiles      int           `json:"tiles"`
	Completed  int           `json:"completed"`
	Done       []uint64      `json:"done"`
	Stats      *engine.Stats `json:"stats"`
	// Extra is an opaque blob owned by the tool layered above the engine
	// (the autotuner stores its partial top-K here). Absent when unused.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// Fingerprint derives the plan identity a checkpoint is valid for: the
// spec itself (canonical speclang text when expressible, the structural
// summary for host-registered constructs), the compiled plan description
// (which pins the optimizer's loop order, narrowing groups, hoisted steps,
// and ablation flags), the backend, and the schedule-shaping options.
// Workers is deliberately excluded: resuming with a different worker count
// is legal and bit-identical, because the tile set is derived from the
// stored split depth, not the pool size.
func Fingerprint(prog *plan.Program, engineName string, opts engine.Options) string {
	spec, err := speclang.Format(prog.Source)
	if err != nil {
		// Host constructs (deferred constraints, closure iterators) have no
		// canonical text; the structural summary still pins names, domains,
		// and constraint counts.
		spec = prog.Source.Summary()
	}
	h := sha256.New()
	h.Write([]byte(spec))
	h.Write([]byte{0})
	h.Write([]byte(prog.Describe()))
	h.Write([]byte{0})
	h.Write([]byte(engineName))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(opts.SplitDepth)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(opts.ChunkSize)))
	h.Write([]byte{0})
	h.Write([]byte(opts.Protocol.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// Save writes f to path atomically: temp file in the same directory, sync,
// rename over the target. The JSON is compact; Load also reads the
// indented files earlier versions wrote.
func Save(path string, f *File) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ErrCorruptCheckpoint marks a checkpoint file that exists but does not
// decode — truncated by a full disk, damaged in transfer, or not a
// checkpoint at all. Callers match it with errors.Is; the message carries
// the path and the recovery action instead of a raw JSON offset.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// corruptError wraps the decode failure so errors.Is(err,
// ErrCorruptCheckpoint) matches while the underlying JSON error stays
// reachable via Unwrap for debugging.
type corruptError struct {
	path  string
	cause error
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s is truncated or not a checkpoint file; delete it and re-run without -resume to start fresh", e.path)
}

func (e *corruptError) Is(target error) bool { return target == ErrCorruptCheckpoint }
func (e *corruptError) Unwrap() error        { return e.cause }

// Load reads and decodes a checkpoint file, checking only the format
// version — fingerprint validation happens in Resume, where the caller's
// plan is known. A file that does not decode yields ErrCorruptCheckpoint.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, &corruptError{path: path, cause: err}
	}
	if f.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this build reads version %d", path, f.Version, Version)
	}
	return &f, nil
}

// Resume loads path and validates it against the given plan fingerprint,
// returning the engine resume state plus the full file (for tool-owned
// Extra state). A fingerprint mismatch — different spec, plan, backend,
// split depth, chunk size, or protocol — is an error: resuming would
// produce a corrupt survivor set.
func Resume(path, fingerprint string) (*engine.ResumeState, *File, error) {
	f, err := Load(path)
	if err != nil {
		return nil, nil, err
	}
	if f.Fingerprint != fingerprint {
		return nil, nil, fmt.Errorf(
			"checkpoint: %s was written for a different run (fingerprint %.12s…, this run is %.12s…): the spec, plan, engine, split depth, chunk size, or protocol changed; re-run without -resume",
			path, f.Fingerprint, fingerprint)
	}
	if f.Stats == nil {
		return nil, nil, fmt.Errorf("checkpoint: %s has no stats payload", path)
	}
	return &engine.ResumeState{
		SplitDepth: f.SplitDepth,
		Tiles:      f.Tiles,
		Done:       f.Done,
		TileStats:  f.Stats,
	}, f, nil
}

// NewWriter returns a CheckpointConfig that persists the snapshots of a
// run to path with the given fingerprint and cadence. Each snapshot is
// split in two. OnSnapshot, which runs while the workers wait, only
// captures the File; extra, if non-nil, is invoked there to capture
// tool-owned state into the file's Extra blob, and its error aborts the
// run. One goroutine at a time then Saves the newest capture and drops any
// older one still waiting: captures are cumulative, so the newer one
// covers it. A Save error aborts the run at the next snapshot, and Flush,
// which the engine calls at the end of the run, returns once the last
// capture is on disk.
func NewWriter(path, fingerprint string, every int, extra func() (json.RawMessage, error)) *engine.CheckpointConfig {
	w := &writer{path: path}
	return &engine.CheckpointConfig{
		EveryTiles: every,
		OnSnapshot: func(s *engine.Snapshot) error {
			f := &File{
				Version:     Version,
				Fingerprint: fingerprint,
				SplitDepth:  s.SplitDepth,
				Tiles:       s.Tiles,
				Completed:   s.Completed,
				Done:        s.Done,
				Stats:       s.TileStats,
			}
			if extra != nil {
				blob, err := extra()
				if err != nil {
					return err
				}
				f.Extra = blob
			}
			return w.put(f)
		},
		Flush: w.flush,
	}
}

// writer is NewWriter's persist side: the newest capture waiting to be
// saved, the goroutine saving it, and the first Save error.
type writer struct {
	path string
	mu   sync.Mutex
	next *File
	// idle is closed when the persist goroutine exits; nil while none runs.
	idle chan struct{}
	err  error
}

// put hands f to the persist goroutine, starting one if none runs, in
// place of any capture still waiting. It returns the first Save error so
// far, so a failed write aborts the run.
func (w *writer) put(f *File) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.next = f
	if w.idle == nil {
		w.idle = make(chan struct{})
		go w.persist(w.idle)
	}
	return w.err
}

// persist saves the newest capture until none is waiting, then exits.
func (w *writer) persist(idle chan struct{}) {
	defer close(idle)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.next != nil {
		f := w.next
		w.next = nil
		w.mu.Unlock()
		err := Save(w.path, f)
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
	}
	w.idle = nil
}

// flush waits until the persist goroutine has saved the newest capture
// and exited, and returns the first Save error.
func (w *writer) flush() error {
	w.mu.Lock()
	idle := w.idle
	w.mu.Unlock()
	if idle != nil {
		<-idle
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Config names a run's checkpoint files; the zero value checkpoints
// nothing.
type Config struct {
	Path   string // write snapshots to this file
	Resume string // resume from this file (may equal Path)
	Every  int    // snapshot cadence in completed tiles
}

// Enabled reports whether the run writes or resumes a checkpoint.
func (c Config) Enabled() bool { return c.Path != "" || c.Resume != "" }

// Attach wires c into opts for a run of prog on the named engine:
// Fingerprint, then Resume into opts.Resume, then NewWriter into
// opts.Checkpoint (extra as in NewWriter). Attach it after every
// schedule-shaping option is set. It returns the resumed file, nil for a
// fresh run, so the caller can restore its Extra payload.
func (c Config) Attach(opts *engine.Options, prog *plan.Program, engineName string, extra func() (json.RawMessage, error)) (*File, error) {
	if !c.Enabled() {
		return nil, nil
	}
	fp := Fingerprint(prog, engineName, *opts)
	var file *File
	if c.Resume != "" {
		res, f, err := Resume(c.Resume, fp)
		if err != nil {
			return nil, err
		}
		opts.Resume, file = res, f
	}
	if c.Path != "" {
		opts.Checkpoint = NewWriter(c.Path, fp, c.Every, extra)
	}
	return file, nil
}
