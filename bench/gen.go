package main

// Seeded input generators and the reference oracles the answers are checked
// against. Nothing here imports the engine: a later change cannot alter the
// traffic or the expected answers by editing engine code.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

const (
	tcRules  = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"
	tcnRules = "tcn(X, Y) :- e(X, Y).\ntcn(X, Y) :- tcn(X, Z), tcn(Z, Y).\n"
	sgRules  = "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n"
)

type edge struct{ src, dst string }

// relation is the edge list of one binary predicate, in file order.
type relation []edge

func (r relation) shuffled(rng *rand.Rand) relation {
	rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	return r
}

func (r relation) adjacency() map[string][]string {
	adj := make(map[string][]string, len(r))
	for _, e := range r {
		adj[e.src] = append(adj[e.src], e.dst)
	}
	return adj
}

// csv renders the relation in the format `chainlog ingest -csv` reads.
func (r relation) csv() []byte {
	var b bytes.Buffer
	for _, e := range r {
		b.WriteString(e.src)
		b.WriteByte(',')
		b.WriteString(e.dst)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// facts renders the relation as Datalog fact text.
func (r relation) facts(pred string, b *strings.Builder) {
	for _, e := range r {
		fmt.Fprintf(b, "%s(%s, %s).\n", pred, e.src, e.dst)
	}
}

// completeTree is a complete binary tree in heap numbering: node i has the
// children 2i and 2i+1, the root t1 is level 0 and the leaves are level
// depth-1.
func completeTree(depth int) relation {
	n := 1<<depth - 1
	r := make(relation, 0, n-1)
	for i := 2; i <= n; i++ {
		r = append(r, edge{treeNode(i / 2), treeNode(i)})
	}
	return r
}

func treeNode(i int) string { return fmt.Sprintf("t%d", i) }

// treeLevel lists the nodes of one level of the complete tree.
func treeLevel(level int) []string {
	out := make([]string, 0, 1<<level)
	for i := 1 << level; i < 2<<level; i++ {
		out = append(out, treeNode(i))
	}
	return out
}

// shiftedLadder is the paper's Fig. 7 sample (b): an up chain a1..an, a flat
// rung at every level and a down chain running the same way, so the down
// walks started at different levels share no nodes.
func shiftedLadder(n int) (up, flat, down relation) {
	for i := 1; i <= n; i++ {
		if i < n {
			up = append(up, edge{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)})
			down = append(down, edge{fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", i+1)})
		}
		flat = append(flat, edge{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
	}
	return up, flat, down
}

// chain is n0 -> n1 -> ... -> n(n-1).
func chain(n int) relation {
	r := make(relation, 0, n-1)
	for i := 0; i+1 < n; i++ {
		r = append(r, edge{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
	}
	return r
}

// genealogy is a random recursive tree: person i has one parent drawn
// uniformly among the earlier people, down is the inverse of up, and every
// person from flatFrom on is flat to itself. Person i has about n/i
// descendants, so flatFrom bounds the generation a query can reach: without
// it every binding would answer with a whole level of the tree.
func genealogy(rng *rand.Rand, n, flatFrom int) (up, flat, down relation) {
	for i := 1; i < n; i++ {
		child, parent := fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", rng.Intn(i))
		up = append(up, edge{child, parent})
		down = append(down, edge{parent, child})
	}
	for i := flatFrom; i < n; i++ {
		flat = append(flat, edge{fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i)})
	}
	return up, flat, down
}

// family is a genealogy of fixed shape: person i's parent is person (i-1)/3,
// everyone below the root's children is flat to itself, and the seed decides
// only who is called what. The bottom-up fixpoint over it costs the same
// whatever the seed; over a random genealogy of this size its cost moved by a
// fifth from seed to seed, which would hide a change of a tenth.
func family(rng *rand.Rand, n int) (people []string, up, flat, down relation) {
	for _, k := range rng.Perm(n) {
		people = append(people, fmt.Sprintf("p%d", k))
	}
	for i := 1; i < n; i++ {
		up = append(up, edge{people[i], people[(i-1)/3]})
		down = append(down, edge{people[(i-1)/3], people[i]})
	}
	for i := 4; i < n; i++ {
		flat = append(flat, edge{people[i], people[i]})
	}
	return people, up, flat, down
}

// reach is the oracle for tc(start, Y) and tcn(start, Y): every node one or
// more edges away from start, by breadth-first search.
func reach(adj map[string][]string, start string) []string {
	seen := make(map[string]bool)
	queue := []string{start}
	var out []string
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
				queue = append(queue, v)
			}
		}
	}
	return out
}

// image is the set of nodes one edge away from any node of from.
func image(adj map[string][]string, from []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, u := range from {
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// sameGeneration is the oracle for sg(x, Y) by level sets: climb up level by
// level until nothing is left, then come back down, joining at each level the
// flat image of that level's ancestors. up must be acyclic.
func sameGeneration(up, flat, down map[string][]string, x string) []string {
	levels := [][]string{{x}}
	for {
		next := image(up, levels[len(levels)-1])
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
	}
	var gen []string
	for k := len(levels) - 1; k >= 0; k-- {
		seen := make(map[string]bool)
		var merged []string
		for _, y := range append(image(flat, levels[k]), image(down, gen)...) {
			if !seen[y] {
				seen[y] = true
				merged = append(merged, y)
			}
		}
		gen = merged
	}
	return gen
}

// digest identifies an answer set: the row count and the sum of the FNV-64a
// hashes of the rows. The sum does not depend on row order, so it equals the
// hash of the sorted rows for the purpose of comparison without asking the
// server for any particular order; a duplicated or missing row changes the
// count.
type digest struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// add hashes one row; columns are separated by a zero byte.
func (d *digest) add(cols ...string) {
	h := uint64(fnvOffset)
	for i, c := range cols {
		if i > 0 {
			h *= fnvPrime // the zero separator: h ^ 0 == h
		}
		h = fnvString(h, c)
	}
	d.rows++
	d.sum += h
}

// digestOfColumn digests a one-column answer.
func digestOfColumn(values []string) digest {
	var d digest
	for _, v := range values {
		d.add(v)
	}
	return d
}

func digestOfRows(rows [][]string) digest {
	var d digest
	for _, r := range rows {
		d.add(r...)
	}
	return d
}

var rowsKey = []byte(`"rows":[`)

// digestOfBody digests the rows of a /v1/query response without building
// them: the check runs between two requests of a closed loop, so its cost is
// client think time. Anything the scanner does not expect (an escape, a
// missing key) falls back to a full JSON decode.
func digestOfBody(body []byte) (digest, error) {
	if d, ok := scanRows(body); ok {
		return d, nil
	}
	var resp struct {
		Result *struct {
			Rows [][]string `json:"rows"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return digest{}, err
	}
	if resp.Result == nil {
		return digest{}, fmt.Errorf("response has no result")
	}
	return digestOfRows(resp.Result.Rows), nil
}

func scanRows(body []byte) (digest, bool) {
	i := bytes.Index(body, rowsKey)
	if i < 0 {
		return digest{}, false
	}
	i += len(rowsKey)
	var d digest
	for i < len(body) {
		switch body[i] {
		case ']':
			return d, true
		case ',':
			i++
			continue
		case '[':
			i++
		default:
			return digest{}, false
		}
		h, cols := uint64(fnvOffset), 0
		for i < len(body) && body[i] != ']' {
			if body[i] == ',' {
				i++
				continue
			}
			if body[i] != '"' {
				return digest{}, false
			}
			i++
			if cols > 0 {
				h *= fnvPrime
			}
			for i < len(body) && body[i] != '"' {
				if body[i] == '\\' {
					return digest{}, false
				}
				h = (h ^ uint64(body[i])) * fnvPrime
				i++
			}
			i++
			cols++
		}
		i++
		d.rows++
		d.sum += h
	}
	return digest{}, false
}

// deltaOp is one operation of a /v1/delta body.
type deltaOp struct {
	Op   string   `json:"op"`
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// op is one request of a workload's sequence with the reply the oracle
// expects.
type op struct {
	write bool

	// Reads: the prepared template, its binding, the pinned strategy ("" lets
	// the optimizer choose) and the expected answer.
	template string
	args     []string
	strategy string
	want     digest

	// Writes: the operations and how many of them change the store.
	delta               []deltaOp
	asserted, retracted int

	body []byte // the JSON request body
}

func queryOp(template, arg, strategy string, want digest) op {
	o := op{template: template, args: []string{arg}, strategy: strategy, want: want}
	o.body = o.queryBody(false)
	return o
}

// queryBody is the /v1/query body of a read, optionally asking for the
// evaluation statistics.
func (o *op) queryBody(stats bool) []byte {
	req := map[string]any{"template": o.template, "args": o.args}
	if o.strategy != "" {
		req["strategy"] = o.strategy
	}
	if stats {
		req["stats"] = true
	}
	body, _ := json.Marshal(req) // strings and slices of strings cannot fail
	return body
}

// input is everything one workload feeds the system: the files the daemon is
// started on and the request sequence.
type input struct {
	program string // rules and text facts: the daemon's -program file
	csvRel  string // the relation loaded through `chainlog ingest`
	csv     []byte
	ops     []op
	ready   []op           // reads a freshly started daemon must answer correctly
	writes  *writeSequence // write-watch only
	sha256  string
}

// seal hashes the input and, unless the generator chose them, takes the first
// read of every template and strategy as the readiness probes.
func (in *input) seal() *input {
	seen := make(map[string]bool)
	for _, o := range in.ops {
		if k := o.template + "\x00" + o.strategy; in.writes == nil && !o.write && !seen[k] {
			seen[k] = true
			in.ready = append(in.ready, o)
		}
	}
	h := sha256.New()
	h.Write([]byte(in.program))
	h.Write([]byte{0})
	h.Write([]byte(in.csvRel))
	h.Write([]byte{0})
	h.Write(in.csv)
	for _, o := range in.ops {
		h.Write([]byte{0})
		h.Write(o.body)
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in
}

// sizes are the input dimensions. The defaults are the benchmark; the tests
// shrink them.
type sizes struct {
	treeDepth      int // point-lookup and wide-answer
	lookupLevel    int // first of the three levels point-lookup binds
	lookupBindings int
	wideLevel      int // the level wide-answer binds
	ladder         int // deep-traverse: rungs
	ladderBindings int
	chain          int // general-join: nodes of the chain under tcn
	chainBindings  int // how many nodes at the chain's end are bound
	family         int // general-join: people under sg
	people         int // sparse-large
	peopleBindings int
	writeDepth     int // write-watch tree
	writeKeys      int // fringe edges the write sequence owns
}

var benchSizes = sizes{
	treeDepth: 14, lookupLevel: 8, lookupBindings: 4096, wideLevel: 2,
	ladder: 256, ladderBindings: 32,
	chain: 48, chainBindings: 40, family: 150,
	people: 50000, peopleBindings: 2048,
	writeDepth: 13, writeKeys: 512,
}

// pick draws n values from pool: whole shuffled copies of the pool, so every
// value is used equally often whatever the seed.
func pick(rng *rand.Rand, pool []string, n int) []string {
	out := make([]string, 0, n+len(pool))
	for len(out) < n {
		out = append(out, pool...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

func genTree(rng *rand.Rand, depth int, bindings []string) *input {
	tree := completeTree(depth)
	adj := tree.adjacency()
	in := &input{program: tcRules, csvRel: "e", csv: tree.shuffled(rng).csv()}
	for _, b := range bindings {
		in.ops = append(in.ops, queryOp("tc(?, Y)", b, "", digestOfColumn(reach(adj, b))))
	}
	return in.seal()
}

func genPointLookup(rng *rand.Rand, s sizes) *input {
	var pool []string
	for l := s.lookupLevel; l < s.lookupLevel+3; l++ {
		pool = append(pool, treeLevel(l)...)
	}
	return genTree(rng, s.treeDepth, pick(rng, pool, s.lookupBindings))
}

func genWideAnswer(rng *rand.Rand, s sizes) *input {
	level := treeLevel(s.wideLevel)
	return genTree(rng, s.treeDepth, pick(rng, level, 16*len(level)))
}

func genDeepTraverse(rng *rand.Rand, s sizes) *input {
	up, flat, down := shiftedLadder(s.ladder)
	upAdj, flatAdj, downAdj := up.adjacency(), flat.adjacency(), down.adjacency()
	var prog strings.Builder
	prog.WriteString(sgRules)
	flat.shuffled(rng).facts("flat", &prog)
	down.shuffled(rng).facts("down", &prog)
	in := &input{program: prog.String(), csvRel: "up", csv: up.shuffled(rng).csv()}
	var pool []string
	for i := 1; i <= s.ladderBindings; i++ {
		pool = append(pool, fmt.Sprintf("a%d", i))
	}
	// Pinned to the chain strategy. Left to the optimizer the plan does not
	// stay put: the cost model expects a few hundred facts, the traversal
	// consults some 17,000, and the re-plan trigger then hops from chain to
	// qsqnet to magic (20 times slower) in an order that depends on timing.
	for _, b := range pick(rng, pool, 4*len(pool)) {
		in.ops = append(in.ops, queryOp("sg(?, Y)", b, "chain", digestOfColumn(sameGeneration(upAdj, flatAdj, downAdj, b))))
	}
	return in.seal()
}

func genGeneralJoin(rng *rand.Rand, s sizes) *input {
	e := chain(s.chain)
	people, up, flat, down := family(rng, s.family)
	eAdj, upAdj, flatAdj, downAdj := e.adjacency(), up.adjacency(), flat.adjacency(), down.adjacency()
	var prog strings.Builder
	prog.WriteString(tcnRules)
	prog.WriteString(sgRules)
	up.shuffled(rng).facts("up", &prog)
	flat.shuffled(rng).facts("flat", &prog)
	down.shuffled(rng).facts("down", &prog)
	in := &input{program: prog.String(), csvRel: "e", csv: e.shuffled(rng).csv()}
	var tails []string
	for i := s.chain - s.chainBindings; i < s.chain; i++ {
		tails = append(tails, fmt.Sprintf("n%d", i))
	}
	tails = pick(rng, tails, 3*len(tails))
	people = pick(rng, people[s.family/2:], len(tails)/3)
	for i, p := range people {
		// Three tcn under the optimizer's choice, then one sg pinned to the
		// bottom-up fixpoint.
		for _, t := range tails[3*i : 3*i+3] {
			in.ops = append(in.ops, queryOp("tcn(?, Y)", t, "", digestOfColumn(reach(eAdj, t))))
		}
		in.ops = append(in.ops, queryOp("sg(?, Y)", p, "seminaive", digestOfColumn(sameGeneration(upAdj, flatAdj, downAdj, p))))
	}
	return in.seal()
}

func genSparseLarge(rng *rand.Rand, s sizes) *input {
	up, flat, down := genealogy(rng, s.people, s.people/100)
	upAdj, flatAdj, downAdj := up.adjacency(), flat.adjacency(), down.adjacency()
	var prog strings.Builder
	prog.WriteString(sgRules)
	flat.shuffled(rng).facts("flat", &prog)
	down.shuffled(rng).facts("down", &prog)
	in := &input{program: prog.String(), csvRel: "up", csv: up.shuffled(rng).csv()}
	for i := 0; i < s.peopleBindings; i++ {
		b := fmt.Sprintf("p%d", s.people/2+rng.Intn(s.people/2))
		in.ops = append(in.ops, queryOp("sg(?, Y)", b, "", digestOfColumn(sameGeneration(upAdj, flatAdj, downAdj, b))))
	}
	return in.seal()
}

// writeSequence is the write-watch traffic: a window of one fringe edge
// e(leaf, x) sliding over the keys. Write i asserts key i and retracts key
// i-1, so every write is one assertion and one retraction that both change
// the store, the store is back in its initial state (the tree plus the last
// key) after len(keys) writes, and the state after any number of acknowledged
// writes is known. The sequence owns its keys: nothing else touches them.
type writeSequence struct {
	tree relation
	keys []edge
}

// stateAfter is the oracle's replay: the edges present after the first k
// writes of the repeated sequence.
func (w *writeSequence) stateAfter(k int) relation {
	n := len(w.keys)
	return append(append(relation(nil), w.tree...), w.keys[(k%n+n-1)%n])
}

func genWriteWatch(rng *rand.Rand, s sizes) *input {
	tree := completeTree(s.writeDepth)
	w := &writeSequence{tree: append(relation(nil), tree...)}
	for i, leaf := range pick(rng, treeLevel(s.writeDepth-1), s.writeKeys) {
		w.keys = append(w.keys, edge{leaf, fmt.Sprintf("x%d", i)})
	}
	in := &input{program: tcRules, csvRel: "e", csv: w.stateAfter(0).shuffled(rng).csv(), writes: w}
	// The sequence's reads expect the writes before them; a fresh daemon is
	// probed with the watched binding on the initial state instead.
	in.ready = []op{queryOp("tc(?, Y)", watchedArg, "", digestOfColumn(reach(w.stateAfter(0).adjacency(), watchedArg)))}
	for i, key := range w.keys {
		gone := w.keys[(i+len(w.keys)-1)%len(w.keys)]
		o := op{write: true, asserted: 1, retracted: 1, delta: []deltaOp{
			{"assert", "e", []string{key.src, key.dst}},
			{"retract", "e", []string{gone.src, gone.dst}},
		}}
		o.body, _ = json.Marshal(map[string]any{"ops": o.delta})
		// The read after the write binds an ancestor of the asserted leaf,
		// three levels up: its answer just changed.
		var leaf int
		fmt.Sscanf(key.src, "t%d", &leaf)
		anc := treeNode(leaf >> 3)
		want := digestOfColumn(reach(w.stateAfter(i+1).adjacency(), anc))
		in.ops = append(in.ops, o, queryOp("tc(?, Y)", anc, "", want))
	}
	return in.seal()
}
