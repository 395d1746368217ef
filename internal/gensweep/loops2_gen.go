// Code generated by the BEAST search-space translator. DO NOT EDIT.
//
// Figure 19 loop-nest workload: depth 2, 10000000 total iterations (side 3163).
//
// Loop nest order: i0, i1
// Tuple emission order: i0, i1

package gensweep

// Loops2Stats mirrors engine.Stats for the generated sweep.
type Loops2Stats struct {
	Visits    [2]int64
	Checks    [1]int64
	Kills     [1]int64
	Survivors int64
}

// Loops2 runs the generated sweep. onTuple may be nil; returning false
// stops enumeration early.
func Loops2(onTuple func(vals []int64) bool) Loops2Stats {
	var st Loops2Stats
	side := int64(3163)
	_ = side

	for i0 := int64(0); i0 < (3163); i0 += 1 {
		st.Visits[0]++
		beast_t0 := int64(((i0 * 3) + 7))
		_ = beast_t0
		for i1 := int64(0); i1 < (3163); i1 += 1 {
			st.Visits[1]++
			acc := int64(beast_mod((beast_t0 + i1), 1009))
			_ = acc
			st.Survivors++
			if onTuple != nil && !onTuple([]int64{i0, i1}) {
				return st
			}
		}
	}
	return st
}
