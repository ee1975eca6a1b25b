package symtab

import (
	"encoding/binary"
	"slices"
	"strings"
)

// orderSmall is the group size below which Order compares names: a
// counting pass costs its 256-entry tables whatever the group's size.
const orderSmall = 32

// Order returns the permutation that puts names in bytewise order, the
// order SortRows and a snapshot's ids promise; equal names keep their
// input order. A name's key is its first 8 bytes, big-endian and
// zero-padded, and its length clamped to 9, and the keys are sorted a
// byte a pass, least significant first, skipping the bytes every key
// shares. Names longer than 8 bytes that tie on the key are ordered the
// same way by their next 8 bytes, so names that share a long prefix cost
// a pass per 8 shared bytes, never a comparison sort.
func Order(names []string) []int32 {
	p := make([]int32, len(names))
	for i := range p {
		p[i] = int32(i)
	}
	var counts [9][256]int32
	order(names, p, make([]radixKey, len(p)), make([]radixKey, len(p)), &counts, 0)
	return p
}

// radixKey is the key of names[i] from byte d on.
type radixKey struct {
	prefix uint64
	rest   uint8
	i      int32
}

// digit is byte q of the key, least significant first: the clamped
// length, then the prefix's bytes from the last to the first.
func (k *radixKey) digit(q int) uint8 {
	if q == 0 {
		return k.rest
	}
	return uint8(k.prefix >> (8 * (q - 1)))
}

// order sorts p, indices of names that agree on their first d bytes. A
// group whose keys all tie moves on to its next 8 bytes in place, so the
// recursion, which shares counts, only enters groups smaller than p.
func order(names []string, p []int32, src, dst []radixKey, counts *[9][256]int32, d int) {
	for len(p) >= orderSmall {
		same := true
		for j, i := range p {
			var b [8]byte
			copy(b[:], names[i][d:])
			src[j] = radixKey{binary.BigEndian.Uint64(b[:]), uint8(min(len(names[i])-d, 9)), i}
			same = same && src[j].prefix == src[0].prefix && src[j].rest == src[0].rest
		}
		if same && src[0].rest < 9 {
			return
		} else if same {
			d += 8
			continue
		}
		*counts = [9][256]int32{}
		for j := range src {
			for q := range counts {
				counts[q][src[j].digit(q)]++
			}
		}
		for q := range counts {
			c := &counts[q]
			if c[src[0].digit(q)] == int32(len(p)) {
				continue
			}
			var at int32
			for v, n := range c {
				c[v], at = at, at+n
			}
			for _, k := range src {
				v := k.digit(q)
				dst[c[v]] = k
				c[v]++
			}
			src, dst = dst, src
		}
		for a := 0; a < len(src); {
			b := a + 1
			for b < len(src) && src[b].prefix == src[a].prefix && src[b].rest == src[a].rest {
				b++
			}
			for j := a; j < b; j++ {
				p[j] = src[j].i
			}
			if src[a].rest == 9 && b-a > 1 {
				order(names, p[a:b], src[a:b], dst[a:b], counts, d+8)
			}
			a = b
		}
		return
	}
	slices.SortStableFunc(p, func(a, b int32) int { return strings.Compare(names[a][d:], names[b][d:]) })
}
