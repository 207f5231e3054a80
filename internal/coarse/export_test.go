package coarse

import (
	"fmt"
	"slices"
)

// CheckColumns compares the column lists of w, rank's SolveWork, with a
// scan of every column of X: the local columns whose entries all lie in the
// rank's rows, ascending, and, in CrossCols order, every cross column with
// an entry in the rank's rows, with the run of its entries that do.
func CheckColumns(s *Dist, rank int, w *SolveWork) error {
	lo, hi := s.BlockLo[rank], s.BlockHi[rank]
	var own []int
	var cross []crossWin
	for j := 0; j < s.N; j++ {
		idx := s.x.Idx[j]
		in := func(k int) bool { return int(idx[k]) >= lo && int(idx[k]) < hi }
		k0 := 0
		for k0 < len(idx) && !in(k0) {
			k0++
		}
		k1 := k0
		for k1 < len(idx) && in(k1) {
			k1++
		}
		if s.crossOf[j] < 0 {
			if k0 == 0 && k1 == len(idx) && k1 > 0 {
				own = append(own, j)
			}
		} else if k0 < k1 {
			cross = append(cross, crossWin{s.crossOf[j], j, k0, k1})
		}
	}
	if !slices.Equal(own, w.own) {
		return fmt.Errorf("rank %d owns columns %v, a scan finds %v", rank, w.own, own)
	}
	if !slices.Equal(cross, w.cross) {
		return fmt.Errorf("rank %d meets cross columns %v, a scan finds %v", rank, w.cross, cross)
	}
	return nil
}
