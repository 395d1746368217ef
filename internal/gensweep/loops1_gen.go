// Code generated by the BEAST search-space translator. DO NOT EDIT.
//
// Figure 19 loop-nest workload: depth 1, 10000000 total iterations (side 10000000).
//
// Loop nest order: i0
// Tuple emission order: i0

package gensweep

// Loops1Stats mirrors engine.Stats for the generated sweep.
type Loops1Stats struct {
	Visits    [1]int64
	Checks    [1]int64
	Kills     [1]int64
	Survivors int64
}

// Loops1 runs the generated sweep. onTuple may be nil; returning false
// stops enumeration early.
func Loops1(onTuple func(vals []int64) bool) Loops1Stats {
	var st Loops1Stats
	side := int64(10000000)
	_ = side

	for i0 := int64(0); i0 < (10000000); i0 += 1 {
		st.Visits[0]++
		acc := int64(beast_mod(i0, 1009))
		_ = acc
		st.Survivors++
		if onTuple != nil && !onTuple([]int64{i0}) {
			return st
		}
	}
	return st
}
