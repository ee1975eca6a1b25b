package chaineval

import (
	"fmt"
	"io"

	"chainlog/internal/symtab"
)

// Tracer observes the evaluation as it proceeds. All methods are called
// synchronously from the evaluation loop; implementations must be fast
// and must not call back into the engine.
type Tracer interface {
	// Iteration is called at the start of main-loop iteration i (1-based).
	Iteration(i int)
	// Node is called when (q, u) is inserted into the interpretation
	// graph G.
	Node(state int, term symtab.Sym)
	// Expand is called when a transition on derived predicate pred out
	// of state is replaced by a copy of M(e_pred): the copy's entry
	// transitions now leave state itself, and its own states are numbered
	// from first on.
	Expand(pred string, state, first int)
	// Answer is called when a term reaches the final state.
	Answer(term symtab.Sym)
}

// WriterTracer renders events as text lines, resolving terms through a
// symbol table.
type WriterTracer struct {
	W  io.Writer
	St *symtab.Table
	// MaxNodes stops node logging after this many events (0 = unlimited);
	// iteration/expansion events are always written.
	MaxNodes int

	nodes int
}

// Iteration implements Tracer.
func (t *WriterTracer) Iteration(i int) {
	fmt.Fprintf(t.W, "-- iteration %d\n", i)
}

// Node implements Tracer.
func (t *WriterTracer) Node(state int, term symtab.Sym) {
	t.nodes++
	if t.MaxNodes > 0 && t.nodes > t.MaxNodes {
		if t.nodes == t.MaxNodes+1 {
			fmt.Fprintf(t.W, "   ... (node log truncated)\n")
		}
		return
	}
	fmt.Fprintf(t.W, "   node (q%d, %s)\n", state, t.St.Name(term))
}

// Expand implements Tracer.
func (t *WriterTracer) Expand(pred string, state, first int) {
	fmt.Fprintf(t.W, "   expand %s at q%d -> copy's states from q%d\n", pred, state, first)
}

// Answer implements Tracer.
func (t *WriterTracer) Answer(term symtab.Sym) {
	fmt.Fprintf(t.W, "   answer %s\n", t.St.Name(term))
}

// CountingTracer tallies events; used by tests to assert evaluation
// behavior without string parsing.
type CountingTracer struct {
	Iterations, Nodes, Expansions, Answers int
}

// Iteration implements Tracer by counting.
func (c *CountingTracer) Iteration(int) { c.Iterations++ }

// Node implements Tracer by counting.
func (c *CountingTracer) Node(int, symtab.Sym) { c.Nodes++ }

// Expand implements Tracer by counting.
func (c *CountingTracer) Expand(string, int, int) { c.Expansions++ }

// Answer implements Tracer by counting.
func (c *CountingTracer) Answer(symtab.Sym) { c.Answers++ }
