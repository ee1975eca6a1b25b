package edb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chainlog/internal/symtab"
)

// checkChains verifies every built index of t against the arena: each
// live slot is in exactly the chain its masked columns hash to, chains
// ascend, prev and next agree, heads and tails are the ends, and no dead
// slot is linked; and the dedupe set holds every live row at its slot
// and nothing else.
func checkChains(t *testing.T, tab *Table) {
	t.Helper()
	for _, ix := range tab.built() {
		seen := make([]bool, tab.n)
		for b, bk := range ix.buckets {
			prev := int32(-1)
			for s := bk.head; s >= 0; s = ix.links[s].next {
				switch {
				case s <= prev:
					t.Fatalf("mask %b bucket %d: slot %d after %d", ix.mask, b, s, prev)
				case ix.links[s].prev != prev:
					t.Fatalf("mask %b slot %d: prev %d, chain came from %d", ix.mask, s, ix.links[s].prev, prev)
				case tab.isDead(int(s)):
					t.Fatalf("mask %b: dead slot %d still linked", ix.mask, s)
				case int(ix.hashRow(tab.Row(int(s)))>>ix.shift) != b:
					t.Fatalf("mask %b: slot %d in bucket %d, hashes elsewhere", ix.mask, s, b)
				}
				seen[s] = true
				prev = s
			}
			if bk.tail != prev {
				t.Fatalf("mask %b bucket %d: tail %d, chain ends at %d", ix.mask, b, bk.tail, prev)
			}
		}
		for s := range seen {
			if seen[s] == tab.isDead(s) {
				t.Fatalf("mask %b: slot %d linked=%v dead=%v", ix.mask, s, seen[s], tab.isDead(s))
			}
		}
	}
	if rs := tab.set.Load(); rs != nil {
		if rs.n != tab.live {
			t.Fatalf("dedupe set holds %d entries for %d live rows", rs.n, tab.live)
		}
		for s := 0; s < tab.n; s++ {
			if !tab.isDead(s) && tab.Find(tab.Row(s)) != s {
				t.Fatalf("dedupe set finds slot %d's row at %d", s, tab.Find(tab.Row(s)))
			}
		}
	}
}

// scan is the oracle for Each: the live slots in [lo, hi) whose mask
// columns equal bound, in slot order.
func scan(tab *Table, mask uint32, bound []symtab.Sym, lo, hi int) []int {
	var out []int
	for s := lo; s < hi; s++ {
		if tab.isDead(s) {
			continue
		}
		k, ok := 0, true
		for c, v := range tab.Row(s) {
			if mask&(1<<uint(c)) != 0 {
				ok = ok && v == bound[k]
				k++
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// each reads the window through a cursor, handing f every row, and
// returns how many there were.
func each(tab *Table, mask uint32, bound []symtab.Sym, lo, hi int, f func(row []symtab.Sym)) int {
	var c Cursor
	for tab.Window(&c, mask, bound, lo, hi); c.Next(); {
		f(c.Row())
	}
	return c.Count()
}

// eachSlots is what a window's cursor reads, as slots: the slot the
// cursor names for each row must hold that row, and Count must count
// them.
func eachSlots(tab *Table, mask uint32, bound []symtab.Sym, lo, hi int) []int {
	var out []int
	var c Cursor
	for tab.Window(&c, mask, bound, lo, hi); c.Next(); {
		if slot := c.Slot(); !slices.Equal(c.Row(), tab.Row(slot)) || tab.Find(c.Row()) != slot {
			panic(fmt.Sprintf("the cursor named slot %d for row %v", slot, c.Row()))
		}
		out = append(out, c.Slot())
	}
	if c.Count() != len(out) {
		panic(fmt.Sprintf("the cursor counted %d and read %v", c.Count(), out))
	}
	return out
}

// TestTableMatchesScan drives one table per arity — 0, 1, 2 and 4 to 6,
// both sides of what used to be the packed-key limit — through inserts,
// removals and re-assertions over a small domain (so keys repeat, and a
// bound vector often repeats a value across columns), and holds every
// mask, every window and the chains against a scan of the arena.
func TestTableMatchesScan(t *testing.T) {
	for _, arity := range []int{0, 1, 2, 4, 5, 6} {
		t.Run(fmt.Sprint("arity=", arity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(arity)))
			tab := NewTable(arity)
			randRow := func() []symtab.Sym {
				row := make([]symtab.Sym, arity)
				for i := range row {
					row[i] = symtab.Sym(1 + rng.Intn(3))
				}
				return row
			}
			for step := 0; step < 400; step++ {
				row := randRow()
				was := tab.Find(row) >= 0
				if rng.Intn(3) == 0 {
					if tab.Remove(row) != was {
						t.Fatalf("remove(%v) with the row present=%v", row, was)
					}
				} else if tab.Add(row) == was {
					t.Fatalf("Add(%v) with the row present=%v", row, was)
				}
				if step%40 != 0 {
					continue
				}
				for mask := uint32(0); mask < 1<<uint(arity); mask++ {
					var bound []symtab.Sym
					for c, v := range randRow() {
						if mask&(1<<uint(c)) != 0 {
							bound = append(bound, v)
						}
					}
					lo := rng.Intn(tab.n + 1)
					hi := lo + rng.Intn(tab.n-lo+1)
					for _, w := range [][2]int{{0, tab.n}, {lo, hi}, {lo, tab.n}} {
						if got, want := eachSlots(tab, mask, bound, w[0], w[1]), scan(tab, mask, bound, w[0], w[1]); !slices.Equal(got, want) {
							t.Fatalf("step %d mask %b bound %v window %v: slots %v, scan %v", step, mask, bound, w, got, want)
						}
					}
				}
				checkChains(t, tab)
			}
			tab.compact(nil)
			if tab.n != tab.live || tab.built() != nil {
				t.Fatalf("compact left %d slots for %d rows, %d indexes", tab.n, tab.live, len(tab.built()))
			}
			if arity > 0 {
				tab.index(1)
			}
			tab.Find(randRow())
			checkChains(t, tab)
		})
	}
}

// TestTableArrivalOrder: the rows of one key come back in the order they
// were added, whole or cut to a window, however often the index has been
// rehashed in between — what a QSQ net's delta windows rely on.
func TestTableArrivalOrder(t *testing.T) {
	tab := NewTable(2)
	each(tab, 1, []symtab.Sym{0}, 0, 0, func([]symtab.Sym) {}) // index column 0 from the start
	const keys, perKey = 5, 300
	for i := 0; i < perKey; i++ {
		for _, k := range rand.New(rand.NewSource(int64(i))).Perm(keys) {
			tab.Add([]symtab.Sym{symtab.Sym(k), symtab.Sym(i)})
		}
	}
	for k := 0; k < keys; k++ {
		for _, w := range [][2]int{{0, tab.Rows()}, {keys * 100, keys * 200}} {
			next := symtab.Sym(w[0] / keys)
			n := each(tab, 1, []symtab.Sym{symtab.Sym(k)}, w[0], w[1], func(row []symtab.Sym) {
				if row[0] != symtab.Sym(k) || row[1] != next {
					t.Fatalf("key %d window %v: got %v, want arrival %d", k, w, row, next)
				}
				next++
			})
			if n != (w[1]-w[0])/keys {
				t.Fatalf("key %d window %v: %d rows", k, w, n)
			}
		}
	}
}

// TestRelationChurnKeepsChains takes a relation through insert, retract
// and re-assert until maybeCompact has rewritten the arena, with two
// indexes built beforehand, and checks the chains and Match at every
// stage: a retracted tuple leaves every chain, a re-asserted one joins
// them at a fresh slot, compaction drops the indexes and the next probe
// rebuilds them over the renumbered slots.
func TestRelationChurnKeepsChains(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	sym := func(i int) symtab.Sym { return st.Intern(fmt.Sprintf("c%d", i)) }
	for i := 0; i < 8; i++ {
		s.Insert("r", sym(i%2), sym(i), sym(100))
	}
	r := s.Relation("r")
	matchSlots(r, 1<<0, []symtab.Sym{sym(0)})
	matchSlots(r, 1<<0|1<<2, []symtab.Sym{sym(0), sym(100)})
	// Every round appends a slot, so the slot count falls only when a
	// compaction renumbers them.
	slots := r.tab.Rows()
	for i := 0; r.tab.Rows() >= slots; i++ {
		if i > 10*adjTailMax {
			t.Fatal("churn never compacted")
		}
		slots = r.tab.Rows()
		k := 8 + i
		if !s.Insert("r", sym(0), sym(k), sym(100)) || !s.Remove("r", sym(0), sym(k), sym(100)) {
			t.Fatalf("round %d: insert/remove of a fresh tuple refused", i)
		}
		if i%2 == 0 { // re-assert, so half the churn stays
			s.Insert("r", sym(0), sym(k), sym(100))
			s.Remove("r", sym(0), sym(k), sym(100))
		}
		checkChains(t, &r.tab)
	}
	if r.tab.n > r.tab.live+2 {
		t.Fatalf("compaction left %d slots for %d tuples", r.tab.n, r.tab.live)
	}
	match := func() []int {
		var out []int
		for _, slot := range matchSlots(r, 1<<0, []symtab.Sym{sym(0)}) {
			out = append(out, int(slot))
		}
		return out
	}
	if got, want := match(), scan(&r.tab, 1<<0, []symtab.Sym{sym(0)}, 0, r.tab.n); len(got) != 4 || !slices.Equal(got, want) {
		t.Fatalf("after compaction Match(c0,_,_) = %v, scan %v", got, want)
	}
	if !s.Insert("r", sym(0), sym(8), sym(100)) {
		t.Fatal("re-assert after compaction refused")
	}
	if got, want := match(), scan(&r.tab, 1<<0, []symtab.Sym{sym(0)}, 0, r.tab.n); len(got) != 5 || !slices.Equal(got, want) {
		t.Fatalf("after re-assert Match(c0,_,_) = %v, scan %v", got, want)
	}
	checkChains(t, &r.tab)
}

// TestFrozenRelationIndexes: a frozen relation has no index until a probe
// needs one; a masked probe of a mapped n-ary relation builds them over
// the mapped arena, which the first mutation copies, and the first
// mutation of a frozen binary one over the thawed arena.
func TestFrozenRelationIndexes(t *testing.T) {
	st := symtab.NewTable()
	s := NewStore(st)
	x, y, z := st.Intern("x"), st.Intern("y"), st.Intern("z")
	r3, err := s.InstallFlat("t3", 3, 3, []symtab.Sym{x, y, z, z, y, x, x, x, x})
	if err != nil {
		t.Fatal(err)
	}
	if r3.tab.built() != nil {
		t.Fatal("InstallFlat built an index")
	}
	var got [][]symtab.Sym
	r3.MatchEach(1<<0|1<<1, []symtab.Sym{x, x}, nil, func(tu []symtab.Sym) { got = append(got, slices.Clone(tu)) })
	if len(got) != 1 || !slices.Equal(got[0], []symtab.Sym{x, x, x}) {
		t.Fatalf("t3(x, x, _) = %v", got)
	}
	if s.Insert("t3", z, y, x) || !s.Insert("t3", y, y, y) {
		t.Fatal("dedupe over the thawed arena is wrong")
	}
	checkChains(t, &r3.tab)

	fs, fst := buildFrozen(t, frozenEdges)
	edge := fs.Relation("edge")
	a, b := fst.Intern("a"), fst.Intern("b")
	if !fs.Remove("edge", a, b) || fs.Remove("edge", a, b) || !fs.Insert("edge", a, b) {
		t.Fatal("remove/re-assert on a thawed frozen relation")
	}
	if got := matchSlots(edge, 1<<1, []symtab.Sym{b}); len(got) != 1 || !slices.Equal(edge.Tuple(int(got[0])), []symtab.Sym{a, b}) {
		t.Fatalf("edge(_, b) = %v", got)
	}
	checkChains(t, &edge.tab)
}

// TestTableZeroAlloc pins the point of the table: with the arena and the
// indexes at their final size, an Add — of a new row or of a duplicate —
// and a probe allocate nothing, whatever the arity.
func TestTableZeroAlloc(t *testing.T) {
	for arity := 1; arity <= 6; arity++ {
		tab := NewTable(arity)
		mask := uint32(1) | 1<<uint(arity-1)
		row := make([]symtab.Sym, arity)
		bound := []symtab.Sym{7, 7}[:min(arity, 2)]
		set := func(i int) {
			for c := range row {
				row[c] = symtab.Sym(i % (7 + c))
			}
			row[arity/2] = symtab.Sym(i)
		}
		fill := func(n int) {
			for i := 0; i < n; i++ {
				set(i)
				tab.Add(row)
			}
		}
		fill(100)
		each(tab, mask, bound, 0, tab.Rows(), func([]symtab.Sym) {})
		// Grow everything to its size at 4096 rows, then start over in
		// the same storage.
		fill(4096)
		n := tab.Rows()
		tab.Reset()
		i := 0
		visit := func([]symtab.Sym) {}
		if got := testing.AllocsPerRun(n/2-1, func() {
			set(i)
			tab.Add(row)
			tab.Add(row)
			each(tab, mask, bound, i/2, tab.Rows(), visit)
			each(tab, 0, nil, tab.Rows()-1, tab.Rows(), visit)
			i++
		}); got != 0 {
			t.Errorf("arity %d: Add + Add + two probes allocate %.1f objects, want 0", arity, got)
		}
		checkChains(t, tab)
	}
}

// TestTableRepackMovesSideArrays keeps an array parallel to the slots
// through churn: Repack must leave a sparse enough table alone, and when
// it runs tell the caller every live slot's move, in ascending order, so
// that the array still describes the rows.
func TestTableRepackMovesSideArrays(t *testing.T) {
	tab := NewTable(2)
	var side []symtab.Sym // side[slot] is the slot's row's first column
	add := func(i int) {
		if tab.Add([]symtab.Sym{symtab.Sym(i), symtab.Sym(i % 5)}) {
			side = append(side, symtab.Sym(i))
		}
	}
	repack := func() bool {
		last := -1
		ran := tab.Repack(func(from, to int) {
			if to > from || to != last+1 {
				t.Fatalf("moved(%d, %d) after a move to %d", from, to, last)
			}
			last = to
			side[to] = side[from]
		})
		if ran {
			side = side[:tab.Rows()]
		}
		return ran
	}
	for i := 0; i < 400; i++ {
		add(i)
	}
	for i := 0; i < 150; i++ {
		tab.Remove([]symtab.Sym{symtab.Sym(2 * i), symtab.Sym(2 * i % 5)})
	}
	if repack() {
		t.Fatal("repacked with 150 of 400 slots dead")
	}
	for i := 300; i < 400; i++ {
		tab.Remove([]symtab.Sym{symtab.Sym(i), symtab.Sym(i % 5)})
	}
	if !repack() || tab.Rows() != tab.Len() || tab.Len() != 150 {
		t.Fatalf("after repacking 400 slots with 250 dead: %d slots, %d live", tab.Rows(), tab.Len())
	}
	add(1000)
	for s := 0; s < tab.Rows(); s++ {
		if tab.Row(s)[0] != side[s] || tab.Find(tab.Row(s)) != s {
			t.Fatalf("slot %d holds %v, found at %d, side array says %d", s, tab.Row(s), tab.Find(tab.Row(s)), side[s])
		}
	}
	checkChains(t, tab)
}

// TestTableReset refills a table after Reset with another row set and
// holds it to a fresh table filled the same way: every built mask, whole
// and cut to a window, answers alike, a row from before the reset is
// gone, and a refill no larger than the fill before allocates nothing —
// what lets a fixpoint run on the tables of the run before.
func TestTableReset(t *testing.T) {
	rows := func(seed int64, n int) [][]symtab.Sym {
		rng := rand.New(rand.NewSource(seed))
		out := make([][]symtab.Sym, n)
		for i := range out {
			out[i] = []symtab.Sym{symtab.Sym(rng.Intn(40)), symtab.Sym(rng.Intn(40))}
		}
		return out
	}
	fill := func(tab *Table, rows [][]symtab.Sym) {
		for _, r := range rows {
			tab.Add(r)
		}
	}
	before, after := rows(1, 600), rows(2, 400)
	tab := NewTable(2)
	fill(tab, before)
	each(tab, 1, []symtab.Sym{0}, 0, tab.Rows(), func([]symtab.Sym) {}) // a one-column index beside the dedupe set
	for _, r := range before[:50] {
		tab.Remove(r) // tombstones, which the reset must clear too
	}
	tab.Reset()
	fill(tab, after)
	fresh := NewTable(2)
	fill(fresh, after)
	checkChains(t, tab)
	if tab.Rows() != fresh.Rows() || tab.Len() != fresh.Len() {
		t.Fatalf("refilled: %d slots, %d rows; fresh: %d, %d", tab.Rows(), tab.Len(), fresh.Rows(), fresh.Len())
	}
	n := tab.Rows()
	for _, mask := range []uint32{0, 1, 3} {
		for _, r := range after[:20] {
			var bound []symtab.Sym
			for c, v := range r {
				if mask&(1<<uint(c)) != 0 {
					bound = append(bound, v)
				}
			}
			for _, w := range [][2]int{{0, n}, {n / 3, 2 * n / 3}} {
				if got, want := eachSlots(tab, mask, bound, w[0], w[1]), eachSlots(fresh, mask, bound, w[0], w[1]); !slices.Equal(got, want) {
					t.Fatalf("mask %b bound %v window %v: refilled %v, fresh %v", mask, bound, w, got, want)
				}
			}
		}
	}
	for _, r := range before {
		if tab.Find(r) != fresh.Find(r) {
			t.Fatalf("Find(%v) = %d after the reset, %d on a fresh table", r, tab.Find(r), fresh.Find(r))
		}
	}
	if got := testing.AllocsPerRun(10, func() {
		tab.Reset()
		fill(tab, after)
	}); got != 0 {
		t.Errorf("a refill within the old size allocates %.1f objects, want 0", got)
	}
}

// TestDedupeProbesStayShort holds the dedupe set's probe sequences short
// on pairs in arithmetic progression, (i mod 150, 7i mod 150 + i/150):
// with a home that is the packed pair times a constant, whose top bits
// are linear in the two columns, these 1,552 pairs averaged 11 probes
// and one took 49.
func TestDedupeProbesStayShort(t *testing.T) {
	tab := NewTable(2)
	for i := 0; i < 1552; i++ {
		tab.Add([]symtab.Sym{symtab.Sym(i%150 + 1), symtab.Sym((i*7)%150 + 200 + i/150)})
	}
	rs := tab.set.Load()
	m := uint64(len(rs.keys) - 1)
	total, longest := 0, 0
	for s := 0; s < tab.Rows(); s++ {
		k, n := tab.setKey(tab.Row(s)), 1
		for i := rs.home(k); rs.keys[i] != k; i = (i + 1) & m {
			n++
		}
		total, longest = total+n, max(longest, n)
	}
	if avg := float64(total) / float64(tab.Rows()); avg > 2 || longest > 16 {
		t.Errorf("probes average %.2f, longest %d; want at most 2 and 16", avg, longest)
	}
}
