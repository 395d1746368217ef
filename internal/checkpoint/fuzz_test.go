package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// FuzzLoad: Load, and Resume on whatever loads, never panic on arbitrary
// file contents. Bytes that do not decode as a checkpoint document give
// ErrCorruptCheckpoint; a document of another format version is rejected
// without it; a loaded file resumes under its own fingerprint exactly when
// it carries a stats payload, and the resume state mirrors the file.
func FuzzLoad(f *testing.F) {
	good, err := json.MarshalIndent(&File{
		Version:     Version,
		Fingerprint: "cafe",
		SplitDepth:  2,
		Tiles:       70,
		Completed:   3,
		Done:        []uint64{0b1011, 0},
		Stats:       &engine.Stats{Survivors: 42, LoopVisits: []int64{10, 20}},
		Extra:       json.RawMessage(`{"top":[1,2]}`),
	}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(good),
		string(good[:len(good)/2]),
		"not json at all",
		"",
		"null",
		`{"version": 2, "fingerprint": "x"}`,
		`{"version": 1, "fingerprint": "x"}`,
		`{"version": 1, "done": "x"}`,
		`{"version": 1, "stats": {"LoopVisits": [1e30]}}`,
	} {
		f.Add([]byte(seed))
	}
	// Inputs run one at a time in each fuzzing process, so they share one
	// file.
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var doc File
		decodes := json.Unmarshal(data, &doc) == nil
		got, err := Load(path)
		switch {
		case !decodes:
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("undecodable bytes: err = %v, want ErrCorruptCheckpoint", err)
			}
			return
		case errors.Is(err, ErrCorruptCheckpoint):
			t.Fatalf("a decodable document was reported corrupt: %v", err)
		case doc.Version != Version:
			if err == nil {
				t.Fatalf("loaded a version-%d document", doc.Version)
			}
			return
		case err != nil:
			t.Fatalf("a version-%d document did not load: %v", Version, err)
		}
		rs, rf, err := Resume(path, got.Fingerprint)
		if got.Stats == nil {
			if err == nil {
				t.Fatal("resumed a file without a stats payload")
			}
			return
		}
		if err != nil {
			t.Fatalf("resume under the file's own fingerprint: %v", err)
		}
		if !reflect.DeepEqual(rf, got) {
			t.Fatalf("Resume and Load disagree:\n%+v\n%+v", rf, got)
		}
		if rs.SplitDepth != got.SplitDepth || rs.Tiles != got.Tiles ||
			!reflect.DeepEqual(rs.Done, got.Done) || rs.TileStats != rf.Stats {
			t.Fatalf("resume state %+v does not mirror the file %+v", rs, got)
		}
		rs.CompletedTiles()
	})
}
