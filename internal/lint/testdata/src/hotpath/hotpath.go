// Package hotpath is the compiler-report fixture: //imc:hotpath
// functions whose bounds checks and heap moves gc reports, read back
// through the same parse path as the repository's hotpath.golden.
package hotpath

// The BCE idiom table. Each idiom* function indexes slices in a hot
// loop in a shape gc's prove pass clears, so its section holds no
// bounds check. The check* functions are the controls: the index is
// data, not an induction variable bounded by the slice, and gc keeps
// the check.

//imc:hotpath
func idiomRangeSelf(s []int) int {
	t := 0
	for i := range s {
		t += s[i]
	}
	return t
}

//imc:hotpath
func idiomCountedSelf(s []int) int {
	t := 0
	for i := 0; i < len(s); i++ {
		t += s[i]
	}
	return t
}

//imc:hotpath
func idiomLocalLen(s []int) int {
	n := len(s)
	t := 0
	for i := 0; i < n; i++ {
		t += s[i]
	}
	return t
}

//imc:hotpath
func idiomResliced(a, b []int) int {
	b = b[:len(a)]
	t := 0
	for i := range a {
		t += b[i]
	}
	return t
}

//imc:hotpath
func idiomHinted(a, b []int) int {
	if len(b) < len(a) {
		return 0
	}
	_ = b[len(a)-1]
	t := 0
	for i := range a {
		t += b[i]
	}
	return t
}

//imc:hotpath
func idiomSizedMake(a []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] * 2
	}
	return out
}

//imc:hotpath
func idiomMaskedArray(keys []int) int {
	var tbl [16]int
	t := 0
	for _, k := range keys {
		t += tbl[k&15]
	}
	return t
}

//imc:hotpath
func checkGather(vals []float64, idx []int) float64 {
	t := 0.0
	for _, j := range idx {
		t += vals[j]
	}
	return t
}

//imc:hotpath
func checkWordPack(words []uint64, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if words[i/64]&(1<<(uint(i)%64)) != 0 {
			c++
		}
	}
	return c
}

// The escape witnesses. chainThroughCopies returns x's address through
// two copies, so gc moves x to the heap; cleanLocalPointer's address
// never leaves the frame.

//imc:hotpath
func chainThroughCopies() *int {
	x := 7
	p := &x
	q := p
	return q
}

//imc:hotpath
func cleanLocalPointer() int {
	x := 8
	p := &x
	*p = 9
	return x
}
