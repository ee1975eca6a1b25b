package chaineval

import "chainlog/internal/symtab"

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
