package checkpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

func testProg(t *testing.T) *plan.Program {
	t.Helper()
	s := space.New()
	s.Range("i", expr.IntLit(0), expr.IntLit(9))
	s.Range("j", expr.IntLit(0), expr.IntLit(9))
	s.Constrain("diag", space.Hard, expr.Gt(expr.NewRef("i"), expr.NewRef("j")))
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	f := &File{
		Version:     Version,
		Fingerprint: "cafe",
		SplitDepth:  2,
		Tiles:       70,
		Completed:   3,
		Done:        []uint64{0b1011, 0},
		Stats:       &engine.Stats{Survivors: 42, LoopVisits: []int64{10, 20}},
	}
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip changed the file:\ngot  %+v\nwant %+v", got, f)
	}
	// The atomic writer must not leave temp litter behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want just the file", len(entries))
	}
	// Overwriting is the steady-state operation (every snapshot).
	f.Completed = 4
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != 4 {
		t.Fatalf("second save not visible: completed=%d", got.Completed)
	}
}

func TestLoadRejectsGarbageAndWrongVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "not a checkpoint file") {
		t.Fatalf("garbage load: err = %v", err)
	}
	if _, err := Load(bad); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("garbage load should match ErrCorruptCheckpoint, got %v", err)
	}
	// A mid-write truncation (full disk, crash before the atomic rename
	// existed) must surface the path and a recovery hint, not a raw JSON
	// offset.
	good := filepath.Join(dir, "good.ckpt")
	if err := Save(good, &File{Version: Version, Fingerprint: "x"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(trunc)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncated load should match ErrCorruptCheckpoint, got %v", err)
	}
	if !strings.Contains(err.Error(), trunc) || !strings.Contains(err.Error(), "re-run without -resume") {
		t.Fatalf("truncated load error should carry the path and a re-run hint, got %q", err)
	}
	old := filepath.Join(dir, "old.ckpt")
	if err := Save(old, &File{Version: Version + 1, Fingerprint: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(old); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch: err = %v", err)
	}
}

func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	f := &File{Version: Version, Fingerprint: "aaaa", Stats: &engine.Stats{}}
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, "bbbb"); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("fingerprint mismatch: err = %v", err)
	}
	res, file, err := Resume(path, "aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || file == nil {
		t.Fatal("matching resume returned nil state")
	}
}

// TestFingerprintPinsPlanNotWorkers: anything that changes the enumerated
// schedule (spec, chunk size, backend, protocol, split depth) must change
// the fingerprint; the worker count must not, since resuming on different
// hardware is the whole point of a checkpoint.
func TestFingerprintPinsPlanNotWorkers(t *testing.T) {
	prog := testProg(t)
	base := Fingerprint(prog, "compiled", engine.Options{ChunkSize: 64})
	if got := Fingerprint(prog, "compiled", engine.Options{ChunkSize: 64, Workers: 16}); got != base {
		t.Fatal("worker count changed the fingerprint")
	}
	if got := Fingerprint(prog, "compiled", engine.Options{ChunkSize: 1}); got == base {
		t.Fatal("chunk size did not change the fingerprint")
	}
	if got := Fingerprint(prog, "interp", engine.Options{ChunkSize: 64}); got == base {
		t.Fatal("backend did not change the fingerprint")
	}
	if got := Fingerprint(prog, "compiled", engine.Options{ChunkSize: 64, SplitDepth: 3}); got == base {
		t.Fatal("split depth did not change the fingerprint")
	}
	if got := Fingerprint(prog, "compiled", engine.Options{ChunkSize: 64, Protocol: engine.ProtoWhile}); got == base {
		t.Fatal("protocol did not change the fingerprint")
	}

	s2 := space.New()
	s2.Range("i", expr.IntLit(0), expr.IntLit(9))
	s2.Range("j", expr.IntLit(0), expr.IntLit(8)) // one bound differs
	s2.Constrain("diag", space.Hard, expr.Gt(expr.NewRef("i"), expr.NewRef("j")))
	prog2, err := plan.Compile(s2, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(prog2, "compiled", engine.Options{ChunkSize: 64}); got == base {
		t.Fatal("spec change did not change the fingerprint")
	}
}

// TestConfigAttach: Attach is Fingerprint, Resume and NewWriter in one
// step. A zero Config leaves the options alone; a written checkpoint
// resumes under the same schedule and is rejected under another.
func TestConfigAttach(t *testing.T) {
	prog := testProg(t)
	eng, err := engine.NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Workers: 2, ChunkSize: 64}
	if file, err := (Config{}).Attach(&opts, prog, eng.Name(), nil); err != nil || file != nil || opts.Checkpoint != nil || opts.Resume != nil {
		t.Fatalf("zero Config attached something: file=%v err=%v opts=%+v", file, err, opts)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	extra := func() (json.RawMessage, error) { return json.RawMessage(`{"k":1}`), nil }
	w := opts
	if _, err := (Config{Path: path, Every: 1}).Attach(&w, prog, eng.Name(), extra); err != nil || w.Checkpoint == nil {
		t.Fatalf("writer not attached: err=%v", err)
	}
	clean, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	r := opts
	r.Workers = 3 // the worker count is not part of the fingerprint
	file, err := (Config{Resume: path}).Attach(&r, prog, eng.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ex struct{ K int }
	if r.Resume == nil || r.Checkpoint != nil || json.Unmarshal(file.Extra, &ex) != nil || ex.K != 1 {
		t.Fatalf("resume attach: Resume=%v Checkpoint=%v Extra=%s", r.Resume, r.Checkpoint, file.Extra)
	}
	resumed, err := eng.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Survivors != clean.Survivors {
		t.Fatalf("resumed survivors = %d, want %d", resumed.Survivors, clean.Survivors)
	}

	scalar := opts
	scalar.ChunkSize = 1
	if _, err := (Config{Resume: path}).Attach(&scalar, prog, eng.Name(), nil); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume under another chunk size: err = %v", err)
	}
}

// writerProg has 256 depth-1 tiles of 32 survivors each, so a run takes
// hundreds of snapshots. Reorder is off: it would put j outermost, leaving
// 32 tiles.
func writerProg(t *testing.T) (*plan.Program, []engine.Engine) {
	t.Helper()
	s := space.New()
	s.Range("i", expr.IntLit(0), expr.IntLit(256))
	s.Range("j", expr.IntLit(0), expr.IntLit(64))
	s.Constrain("even", space.Hard, expr.Eq(expr.Mod(expr.NewRef("j"), expr.IntLit(2)), expr.IntLit(0)))
	prog, err := plan.Compile(s, plan.Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := engine.NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, []engine.Engine{engine.NewInterp(prog), engine.NewVM(prog), comp}
}

// TestWriterDurableOnReturn: NewWriter persists in the background, yet the
// file on disk when RunContext returns covers exactly the tuples OnTuple
// received, whether the run completes or is cancelled part way.
func TestWriterDurableOnReturn(t *testing.T) {
	prog, engines := writerProg(t)
	const cancelAt = 100
	for _, e := range engines {
		for _, workers := range []int{1, 4} {
			for _, cancelled := range []bool{false, true} {
				label := fmt.Sprintf("%s workers=%d cancelled=%v", e.Name(), workers, cancelled)
				path := filepath.Join(t.TempDir(), "sweep.ckpt")
				opts := engine.Options{Workers: workers, ChunkSize: 64}
				ctx, cancel := context.WithCancel(context.Background())
				var delivered atomic.Int64
				opts.OnTuple = func([]int64) bool {
					if delivered.Add(1) == cancelAt && cancelled {
						// The workers see the cancellation only once the
						// context's AfterFunc has run; this delivery holds
						// off every snapshot, and so most commits, meanwhile.
						cancel()
						time.Sleep(20 * time.Millisecond)
					}
					return true
				}
				opts.Checkpoint = NewWriter(path, Fingerprint(prog, e.Name(), opts), 1, nil)
				st, err := e.RunContext(ctx, opts)
				cancel()
				f, lerr := Load(path)
				if cancelled != errors.Is(err, context.Canceled) || (err != nil && !cancelled) {
					t.Fatalf("%s: err = %v", label, err)
				}
				if lerr != nil {
					t.Fatalf("%s: %v", label, lerr)
				}
				if n := delivered.Load(); f.Stats.Survivors != n || st.Survivors != n {
					t.Fatalf("%s: %d tuples delivered, run reports %d, file on return holds %d (%d of %d tiles)",
						label, n, st.Survivors, f.Stats.Survivors, f.Completed, f.Tiles)
				}
				if partial := f.Completed < f.Tiles; partial != cancelled {
					t.Fatalf("%s: file covers %d of %d tiles", label, f.Completed, f.Tiles)
				}
			}
		}
	}
}

// TestWriterPersistError: a snapshot that cannot be written fails the run.
// Once the first snapshot is taken, OnTuple moves the checkpoint's
// directory away (a rename: os.RemoveAll fails if a write in flight adds a
// file). The run must return an error naming the file, the writer must
// refuse the next snapshot with it, and no persist goroutine may be left.
func TestWriterPersistError(t *testing.T) {
	prog, engines := writerProg(t)
	for _, e := range engines {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", e.Name(), workers)
			dir := filepath.Join(t.TempDir(), "ckpt")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "sweep.ckpt")
			opts := engine.Options{Workers: workers, ChunkSize: 64}
			cfg := NewWriter(path, Fingerprint(prog, e.Name(), opts), 1, nil)
			var snapped, moved atomic.Bool
			capture := cfg.OnSnapshot
			cfg.OnSnapshot = func(s *engine.Snapshot) error {
				err := capture(s)
				snapped.Store(true)
				return err
			}
			opts.Checkpoint = cfg
			opts.OnTuple = func([]int64) bool {
				if snapped.Load() && !moved.Swap(true) {
					if err := os.Rename(dir, dir+".gone"); err != nil {
						t.Error(err)
					}
				}
				return true
			}
			done := make(chan error, 1)
			go func() {
				_, err := e.RunContext(context.Background(), opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), path) {
					t.Fatalf("%s: err = %v, want a write error naming %s", label, err, path)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: run did not return after its checkpoint directory was moved away", label)
			}
			if err := cfg.OnSnapshot(&engine.Snapshot{TileStats: &engine.Stats{}}); err == nil {
				t.Fatalf("%s: the writer accepted a snapshot after a write error", label)
			}
			if err := cfg.Flush(); err == nil {
				t.Fatalf("%s: Flush after a write error returned nil", label)
			}
			for deadline := time.Now().Add(5 * time.Second); persisting(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: a persist goroutine is still running after the run returned", label)
				}
			}
		}
	}
}

// persisting reports whether any goroutine is in writer.persist.
func persisting() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*writer).persist")
}
