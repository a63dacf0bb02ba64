package tensor

// Panel packing for the GotoBLAS-style GEMM driver (gemm.go). A panels are
// mr-row, k-major (lane r of step t at t*mr+r); B panels are nr-column,
// k-major (lane j of step t at t*nr+j). Transposed operands are absorbed
// here — the micro-kernels only ever see packed panels. Partial panels at
// the M/N edges are zero-padded so edge tiles run the same kernel as full
// tiles (the padded lanes' results are discarded); the k dimension is
// never padded, keeping per-element reduction length exact. The float32
// packers narrow while packing, which is the only float64→float32
// conversion on the compute path.

// packAF64 packs rows [ib, ib+ic) of the (possibly transposed) A operand,
// k slice [kk, kk+kc), into mr-row panels in buf. With aT, the logical
// A(row, t) is a.data[t*a.Cols+row].
func packAF64(buf []float64, a mview, aT bool, ib, ic, kk, kc, mr int) {
	nPan := (ic + mr - 1) / mr
	ac := a.ld
	for p := 0; p < nPan; p++ {
		dst := buf[p*mr*kc : (p+1)*mr*kc]
		base := ib + p*mr
		rows := ic - p*mr
		if rows > mr {
			rows = mr
		}
		if aT {
			for t := 0; t < kc; t++ {
				src := a.data[(kk+t)*ac+base : (kk+t)*ac+base+rows]
				o := t * mr
				for r, v := range src {
					dst[o+r] = v
				}
				for r := rows; r < mr; r++ {
					dst[o+r] = 0
				}
			}
		} else {
			for r := 0; r < rows; r++ {
				src := a.data[(base+r)*ac+kk : (base+r)*ac+kk+kc]
				for t, v := range src {
					dst[t*mr+r] = v
				}
			}
			for r := rows; r < mr; r++ {
				for t := 0; t < kc; t++ {
					dst[t*mr+r] = 0
				}
			}
		}
	}
}

// packBF64 packs the full k range of the (possibly transposed) B operand
// into nr-column panels in buf — done once per GEMM, shared read-only by
// every worker. With bT, the logical B(t, j) is b.data[j*b.Cols+t].
func packBF64(buf []float64, b mview, bT bool, n, k, nr int) {
	nPan := (n + nr - 1) / nr
	bc := b.ld
	for jp := 0; jp < nPan; jp++ {
		dst := buf[jp*nr*k : (jp+1)*nr*k]
		j0 := jp * nr
		cols := n - j0
		if cols > nr {
			cols = nr
		}
		if bT {
			for j := 0; j < cols; j++ {
				src := b.data[(j0+j)*bc : (j0+j)*bc+k]
				for t, v := range src {
					dst[t*nr+j] = v
				}
			}
			for j := cols; j < nr; j++ {
				for t := 0; t < k; t++ {
					dst[t*nr+j] = 0
				}
			}
		} else {
			for t := 0; t < k; t++ {
				src := b.data[t*bc+j0 : t*bc+j0+cols]
				o := t * nr
				for j, v := range src {
					dst[o+j] = v
				}
				for j := cols; j < nr; j++ {
					dst[o+j] = 0
				}
			}
		}
	}
}

// packAF32 is packAF64 narrowing to float32.
func packAF32(buf []float32, a mview, aT bool, ib, ic, kk, kc, mr int) {
	nPan := (ic + mr - 1) / mr
	ac := a.ld
	for p := 0; p < nPan; p++ {
		dst := buf[p*mr*kc : (p+1)*mr*kc]
		base := ib + p*mr
		rows := ic - p*mr
		if rows > mr {
			rows = mr
		}
		if aT {
			for t := 0; t < kc; t++ {
				src := a.data[(kk+t)*ac+base : (kk+t)*ac+base+rows]
				o := t * mr
				for r, v := range src {
					dst[o+r] = float32(v)
				}
				for r := rows; r < mr; r++ {
					dst[o+r] = 0
				}
			}
		} else {
			for r := 0; r < rows; r++ {
				src := a.data[(base+r)*ac+kk : (base+r)*ac+kk+kc]
				for t, v := range src {
					dst[t*mr+r] = float32(v)
				}
			}
			for r := rows; r < mr; r++ {
				for t := 0; t < kc; t++ {
					dst[t*mr+r] = 0
				}
			}
		}
	}
}

// packBF32 is packBF64 narrowing to float32.
func packBF32(buf []float32, b mview, bT bool, n, k, nr int) {
	nPan := (n + nr - 1) / nr
	bc := b.ld
	for jp := 0; jp < nPan; jp++ {
		dst := buf[jp*nr*k : (jp+1)*nr*k]
		j0 := jp * nr
		cols := n - j0
		if cols > nr {
			cols = nr
		}
		if bT {
			for j := 0; j < cols; j++ {
				src := b.data[(j0+j)*bc : (j0+j)*bc+k]
				for t, v := range src {
					dst[t*nr+j] = float32(v)
				}
			}
			for j := cols; j < nr; j++ {
				for t := 0; t < k; t++ {
					dst[t*nr+j] = 0
				}
			}
		} else {
			for t := 0; t < k; t++ {
				src := b.data[t*bc+j0 : t*bc+j0+cols]
				o := t * nr
				for j, v := range src {
					dst[o+j] = float32(v)
				}
				for j := cols; j < nr; j++ {
					dst[o+j] = 0
				}
			}
		}
	}
}
