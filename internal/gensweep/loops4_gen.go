// Code generated by the BEAST search-space translator. DO NOT EDIT.
//
// Figure 19 loop-nest workload: depth 4, 10000000 total iterations (side 57).
//
// Loop nest order: i0, i1, i2, i3
// Tuple emission order: i0, i1, i2, i3

package gensweep

// Loops4Stats mirrors engine.Stats for the generated sweep.
type Loops4Stats struct {
	Visits    [4]int64
	Checks    [1]int64
	Kills     [1]int64
	Survivors int64
}

// Loops4 runs the generated sweep. onTuple may be nil; returning false
// stops enumeration early.
func Loops4(onTuple func(vals []int64) bool) Loops4Stats {
	var st Loops4Stats
	side := int64(57)
	_ = side

	for i0 := int64(0); i0 < (57); i0 += 1 {
		st.Visits[0]++
		beast_t2 := int64(((i0 * 3) + 7))
		_ = beast_t2
		for i1 := int64(0); i1 < (57); i1 += 1 {
			st.Visits[1]++
			beast_t1 := int64((((beast_t2 + i1) * 3) + 7))
			_ = beast_t1
			for i2 := int64(0); i2 < (57); i2 += 1 {
				st.Visits[2]++
				beast_t0 := int64((((beast_t1 + i2) * 3) + 7))
				_ = beast_t0
				for i3 := int64(0); i3 < (57); i3 += 1 {
					st.Visits[3]++
					acc := int64(beast_mod((beast_t0 + i3), 1009))
					_ = acc
					st.Survivors++
					if onTuple != nil && !onTuple([]int64{i0, i1, i2, i3}) {
						return st
					}
				}
			}
		}
	}
	return st
}
