package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/space"
)

// requireNaiveSurvivors runs s on every backend at Workers {1, 4} ×
// ChunkSize {1, 64} × DisableFolding {false, true} and requires each
// survivor set to equal naive.Survivors'.
func requireNaiveSurvivors(t *testing.T, label string, s *space.Space) {
	t.Helper()
	want := naive.Survivors(t, s)
	if len(want) == 0 {
		t.Fatalf("%s: no survivors; the comparison is vacuous", label)
	}
	for _, noFold := range []bool{false, true} {
		prog, err := plan.Compile(s, verified(plan.Options{DisableFolding: noFold}))
		if err != nil {
			t.Fatalf("%s no-fold=%v: %v", label, noFold, err)
		}
		for _, e := range allBackends(t, prog) {
			for _, workers := range []int{1, 4} {
				for _, chunk := range []int{1, 64} {
					l := fmt.Sprintf("%s no-fold=%v %s workers=%d chunk=%d", label, noFold, e.Name(), workers, chunk)
					got, _ := collectCanon(t, e, Options{Workers: workers, ChunkSize: chunk}, l)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d survivors, naive enumeration %d", l, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestPinsMatchNaive: on the pinned-equality corpus every backend, at
// chunk 1 and 64 and with one and two workers, delivers naive.Survivors'
// tuples, and the narrowed plan credits each constraint with the kills a
// plan without narrowing counts. The declared order keeps the pinned
// loop x innermost, so its pin divides by c.
func TestPinsMatchNaive(t *testing.T) {
	for _, tc := range naive.PinCorpus() {
		want := naive.Survivors(t, tc.Space)
		ref, err := plan.Compile(tc.Space, verified(plan.Options{DisableNarrowing: true}))
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		_, wantStats := collectCanon(t, NewInterp(ref), Options{ChunkSize: 1}, tc.Name)
		for _, opts := range []plan.Options{{}, {DisableReorder: true}} {
			prog, err := plan.Compile(tc.Space, verified(opts))
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			if opts.DisableReorder {
				if lb := prog.Loops[1].Bounds; lb == nil || len(lb.Groups) != 1 || len(lb.Groups[0].Pins) == 0 {
					t.Fatalf("%s: the constraint was not solved into a pin on x:\n%s", tc.Name, prog.Describe())
				}
			}
			for _, e := range allBackends(t, prog) {
				for _, chunk := range []int{1, 64} {
					for _, workers := range []int{1, 2} {
						l := fmt.Sprintf("%s reorder=%v %s chunk=%d workers=%d", tc.Name, !opts.DisableReorder, e.Name(), chunk, workers)
						got, st := collectCanon(t, e, Options{ChunkSize: chunk, Workers: workers}, l)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: survivors %v, naive enumeration %v", l, got, want)
						}
						if !reflect.DeepEqual(st.Kills, wantStats.Kills) {
							t.Errorf("%s: kills %v, without narrowing %v", l, st.Kills, wantStats.Kills)
						}
					}
				}
			}
		}
	}
}
