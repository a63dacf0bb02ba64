package tensor

import "fmt"

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
// (A transposed, B as stored). Each has two implementations: the Go loops
// below (packRows, packCols), which the tiled variant and every purego
// build run, and amd64 assembly (pack_amd64.s: register transposes
// for rows, vector copies for columns, VCVTPD2PS for the float32 panels),
// which the fma variant runs for every panel its tiles use. Packing is an
// exact copy either way — the assembly stores the same bits as the Go loops,
// padding included (TestPackVecMatchesGo, FuzzPack) — so which one packed a
// panel never shows in a product.

// real is the element type of a packed panel.
type real interface{ float32 | float64 }

// packA packs rows [ib, ib+ic) of the (possibly transposed) A operand,
// k slice [kk, kk+kc), into mr-row panels in buf. With aT, the logical
// A(row, t) is a.data[t*a.ld+row]. vec selects the assembly packers.
func packA[T real](buf []T, a View, aT bool, ib, ic, kk, kc, mr int, vec bool) {
	for p, base := 0, ib; base < ib+ic; p, base = p+1, base+mr {
		dst := buf[p*mr*kc : (p+1)*mr*kc]
		rows := min(mr, ib+ic-base)
		switch {
		case aT && vec:
			packColsVec(dst, mr, a.data, a.ld, base, rows, kk, kc)
		case aT:
			packCols(dst, mr, a.data, a.ld, base, rows, kk, kc)
		case vec:
			packRowsVec(dst, mr, a.data, a.ld, base, rows, kk, kc)
		default:
			packRows(dst, mr, a.data, a.ld, base, rows, kk, kc)
		}
	}
}

// packB packs the full k range of the (possibly transposed) B operand
// into nr-column panels in buf — done once per GEMM, shared read-only by
// every worker. With bT, the logical B(t, j) is b.data[j*b.ld+t]. vec
// selects the assembly packers.
func packB[T real](buf []T, b View, bT bool, n, k, nr int, vec bool) {
	for jp, j0 := 0, 0; j0 < n; jp, j0 = jp+1, j0+nr {
		dst := buf[jp*nr*k : (jp+1)*nr*k]
		cols := min(nr, n-j0)
		switch {
		case bT && vec:
			packRowsVec(dst, nr, b.data, b.ld, j0, cols, 0, k)
		case bT:
			packRows(dst, nr, b.data, b.ld, j0, cols, 0, k)
		case vec:
			packColsVec(dst, nr, b.data, b.ld, j0, cols, 0, k)
		default:
			packCols(dst, nr, b.data, b.ld, j0, cols, 0, k)
		}
	}
}

// packRowsVec is packRows on the assembly packer. It checks what the
// assembly cannot: the panel's shape and that every element it reads and
// writes lies inside data and dst.
func packRowsVec[T real](dst []T, width int, data []float64, ld, r0, lanes, k0, kc int) {
	if kc == 0 {
		return
	}
	checkVecPanel(width, lanes)
	_ = dst[kc*width-1]
	src := data[r0*ld+k0:]
	_ = src[(lanes-1)*ld+kc-1]
	switch d := any(dst).(type) {
	case []float64:
		packRowsF64(d, width, src, ld, lanes, kc)
	case []float32:
		packRowsF32(d, width, src, ld, lanes, kc)
	}
}

// packColsVec is packCols on the assembly packer, checked like packRowsVec.
func packColsVec[T real](dst []T, width int, data []float64, ld, c0, lanes, k0, kc int) {
	if kc == 0 {
		return
	}
	checkVecPanel(width, lanes)
	_ = dst[kc*width-1]
	src := data[k0*ld+c0:]
	_ = src[(kc-1)*ld+lanes-1]
	switch d := any(dst).(type) {
	case []float64:
		packColsF64(d, width, src, ld, lanes, kc)
	case []float32:
		packColsF32(d, width, src, ld, lanes, kc)
	}
}

func checkVecPanel(width, lanes int) {
	if width%4 != 0 || lanes < 1 || lanes > width {
		panic(fmt.Sprintf("tensor: vector pack of %d lanes into a %d-lane panel", lanes, width))
	}
}

// packRows fills one width-lane panel whose lane l is source row r0+l,
// steps [k0, k0+kc) running along the row; lanes past the last are zero.
// Four rows are interleaved per pass — the Go tile's whole A panel — so the
// panel is written in runs, not one element per width.
func packRows[T real](dst []T, width int, data []float64, ld, r0, lanes, k0, kc int) {
	l := 0
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
// step t being source row k0+t; lanes past the last are zero. A full
// 4-lane panel — the Go tile's A panel — copies each step's run unrolled.
func packCols[T real](dst []T, width int, data []float64, ld, c0, lanes, k0, kc int) {
	src := data[k0*ld+c0:]
	if lanes == 4 && width == 4 {
		for t := 0; t < kc; t++ {
			s, d := src[t*ld:][:4:4], dst[t*4:][:4:4]
			d[0], d[1], d[2], d[3] = T(s[0]), T(s[1]), T(s[2]), T(s[3])
		}
		return
	}
	for t := 0; t < kc; t++ {
		d := dst[t*width : (t+1)*width]
		for l, v := range src[t*ld:][:lanes] {
			d[l] = T(v)
		}
		clear(d[lanes:])
	}
}
