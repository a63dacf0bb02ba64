package tensor

// Panel packing for the GotoBLAS-style GEMM driver (gemm.go). A panels are
// mr-row, k-major (lane r of step t at t*mr+r); B panels are nr-column,
// k-major (lane j of step t at t*nr+j). Transposed operands are absorbed
// here — the micro-kernels only ever see packed panels. Partial panels at
// the M/N edges are zero-padded so edge tiles run the same kernel as full
// tiles (the padded lanes' results are discarded); the k dimension is
// never padded, keeping per-element reduction length exact. Packing into
// float32 panels narrows while packing, which is the only float64→float32
// conversion on the compute path.
//
// Both operands reduce to two primitives: a panel whose lanes are rows of
// the source (A as stored, B transposed) and one whose lanes are columns
// (A transposed, B as stored).

// real is the element type of a packed panel.
type real interface{ float32 | float64 }

// packA packs rows [ib, ib+ic) of the (possibly transposed) A operand,
// k slice [kk, kk+kc), into mr-row panels in buf. With aT, the logical
// A(row, t) is a.data[t*a.ld+row].
func packA[T real](buf []T, a View, aT bool, ib, ic, kk, kc, mr int) {
	for p, base := 0, ib; base < ib+ic; p, base = p+1, base+mr {
		dst := buf[p*mr*kc : (p+1)*mr*kc]
		rows := min(mr, ib+ic-base)
		if aT {
			packCols(dst, mr, a.data, a.ld, base, rows, kk, kc)
		} else {
			packRows(dst, mr, a.data, a.ld, base, rows, kk, kc)
		}
	}
}

// packB packs the full k range of the (possibly transposed) B operand
// into nr-column panels in buf — done once per GEMM, shared read-only by
// every worker. With bT, the logical B(t, j) is b.data[j*b.ld+t].
func packB[T real](buf []T, b View, bT bool, n, k, nr int) {
	for jp, j0 := 0, 0; j0 < n; jp, j0 = jp+1, j0+nr {
		dst := buf[jp*nr*k : (jp+1)*nr*k]
		cols := min(nr, n-j0)
		if bT {
			packRows(dst, nr, b.data, b.ld, j0, cols, 0, k)
		} else {
			packCols(dst, nr, b.data, b.ld, j0, cols, 0, k)
		}
	}
}

// packRows fills one width-lane panel whose lane l is source row r0+l,
// steps [k0, k0+kc) running along the row; lanes past the last are zero.
// Four rows are interleaved per pass (eight for the assembly kernels' 8-,
// 16- and 32-lane panels) so the panel is written in runs, not one element
// per width.
func packRows[T real](dst []T, width int, data []float64, ld, r0, lanes, k0, kc int) {
	l := 0
	if lanes == 8 && width == 8 {
		s0, s1, s2, s3 := data[r0*ld+k0:][:kc], data[(r0+1)*ld+k0:][:kc], data[(r0+2)*ld+k0:][:kc], data[(r0+3)*ld+k0:][:kc]
		s4, s5, s6, s7 := data[(r0+4)*ld+k0:][:kc], data[(r0+5)*ld+k0:][:kc], data[(r0+6)*ld+k0:][:kc], data[(r0+7)*ld+k0:][:kc]
		for t, v := range s0 {
			q := dst[t*8:][:8:8]
			q[0], q[1], q[2], q[3] = T(v), T(s1[t]), T(s2[t]), T(s3[t])
			q[4], q[5], q[6], q[7] = T(s4[t]), T(s5[t]), T(s6[t]), T(s7[t])
		}
		return
	}
	if width >= 16 {
		// The 512-bit tiles' 16- and 32-lane panels, full or partial.
		for ; l+8 <= lanes; l += 8 {
			r := r0 + l
			s0, s1, s2, s3 := data[r*ld+k0:][:kc], data[(r+1)*ld+k0:][:kc], data[(r+2)*ld+k0:][:kc], data[(r+3)*ld+k0:][:kc]
			s4, s5, s6, s7 := data[(r+4)*ld+k0:][:kc], data[(r+5)*ld+k0:][:kc], data[(r+6)*ld+k0:][:kc], data[(r+7)*ld+k0:][:kc]
			d := dst[l:]
			for t, v := range s0 {
				q := d[t*width:][:8:8]
				q[0], q[1], q[2], q[3] = T(v), T(s1[t]), T(s2[t]), T(s3[t])
				q[4], q[5], q[6], q[7] = T(s4[t]), T(s5[t]), T(s6[t]), T(s7[t])
			}
		}
	}
	for ; l+4 <= lanes; l += 4 {
		s0 := data[(r0+l)*ld+k0:][:kc]
		s1 := data[(r0+l+1)*ld+k0:][:kc]
		s2 := data[(r0+l+2)*ld+k0:][:kc]
		s3 := data[(r0+l+3)*ld+k0:][:kc]
		d := dst[l:]
		for t, v := range s0 {
			q := d[t*width : t*width+4 : t*width+4]
			q[0], q[1], q[2], q[3] = T(v), T(s1[t]), T(s2[t]), T(s3[t])
		}
	}
	for ; l < lanes; l++ {
		for t, v := range data[(r0+l)*ld+k0:][:kc] {
			dst[t*width+l] = T(v)
		}
	}
	for ; l < width; l++ {
		for t := 0; t < kc; t++ {
			dst[t*width+l] = 0
		}
	}
}

// packCols fills one width-lane panel whose lane l is source column c0+l,
// step t being source row k0+t; lanes past the last are zero. Full panels
// of the assembly kernels' widths (4, 8; 16 and 32 in runs of 16) copy each
// step's run unrolled.
func packCols[T real](dst []T, width int, data []float64, ld, c0, lanes, k0, kc int) {
	src := data[k0*ld+c0:]
	switch {
	case lanes == 4 && width == 4:
		for t := 0; t < kc; t++ {
			s, d := src[t*ld:][:4:4], dst[t*4:][:4:4]
			d[0], d[1], d[2], d[3] = T(s[0]), T(s[1]), T(s[2]), T(s[3])
		}
	case lanes == 8 && width == 8:
		for t := 0; t < kc; t++ {
			s, d := src[t*ld:][:8:8], dst[t*8:][:8:8]
			d[0], d[1], d[2], d[3] = T(s[0]), T(s[1]), T(s[2]), T(s[3])
			d[4], d[5], d[6], d[7] = T(s[4]), T(s[5]), T(s[6]), T(s[7])
		}
	case lanes == width && width%16 == 0:
		for t := 0; t < kc; t++ {
			for l := 0; l < width; l += 16 {
				s, d := src[t*ld+l:][:16:16], dst[t*width+l:][:16:16]
				d[0], d[1], d[2], d[3] = T(s[0]), T(s[1]), T(s[2]), T(s[3])
				d[4], d[5], d[6], d[7] = T(s[4]), T(s[5]), T(s[6]), T(s[7])
				d[8], d[9], d[10], d[11] = T(s[8]), T(s[9]), T(s[10]), T(s[11])
				d[12], d[13], d[14], d[15] = T(s[12]), T(s[13]), T(s[14]), T(s[15])
			}
		}
	default:
		for t := 0; t < kc; t++ {
			d := dst[t*width : (t+1)*width]
			for l, v := range src[t*ld:][:lanes] {
				d[l] = T(v)
			}
			clear(d[lanes:])
		}
	}
}
