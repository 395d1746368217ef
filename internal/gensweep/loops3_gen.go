// Code generated by the BEAST search-space translator. DO NOT EDIT.
//
// Figure 19 loop-nest workload: depth 3, 10000000 total iterations (side 216).
//
// Loop nest order: i0, i1, i2
// Tuple emission order: i0, i1, i2

package gensweep

// Loops3Stats mirrors engine.Stats for the generated sweep.
type Loops3Stats struct {
	Visits    [3]int64
	Checks    [1]int64
	Kills     [1]int64
	Survivors int64
}

// Loops3 runs the generated sweep. onTuple may be nil; returning false
// stops enumeration early.
func Loops3(onTuple func(vals []int64) bool) Loops3Stats {
	var st Loops3Stats
	side := int64(216)
	_ = side

	for i0 := int64(0); i0 < (216); i0 += 1 {
		st.Visits[0]++
		beast_t1 := int64(((i0 * 3) + 7))
		_ = beast_t1
		for i1 := int64(0); i1 < (216); i1 += 1 {
			st.Visits[1]++
			beast_t0 := int64((((beast_t1 + i1) * 3) + 7))
			_ = beast_t0
			for i2 := int64(0); i2 < (216); i2 += 1 {
				st.Visits[2]++
				acc := int64(beast_mod((beast_t0 + i2), 1009))
				_ = acc
				st.Survivors++
				if onTuple != nil && !onTuple([]int64{i0, i1, i2}) {
					return st
				}
			}
		}
	}
	return st
}
