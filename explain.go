package chainlog

import (
	"fmt"
	"strings"

	"chainlog/internal/parser"
)

// Explain renders the compiled form of a query: the template is prepared
// through the plan cache exactly as Query would prepare it, and the
// output describes the plan that would run — for a chain plan its
// equations (the Lemma 1 system of a direct query, or the adorned and
// generated binary-chain programs of a Section 4 one) and the automaton
// the engine runs, and for any other plan the route it takes and, when
// the chain route was tried, why it was rejected. Derived-predicate
// queries additionally get a "plan choice" section: the optimizer's
// decision with its estimated cost and the rejected alternatives, or the
// pin that bypassed it. Without a query, Explain renders the Lemma 1
// equation system of the whole program when it is a binary-chain
// program. Explain uses default options (Auto strategy); use ExplainOpts
// to see how pinned options change the choice.
func (db *DB) Explain(query string) (string, error) {
	return db.ExplainOpts(query, Options{})
}

// ExplainOpts is Explain under explicit options. A pinned
// Options.Strategy is reported as such: the optimizer is bypassed
// entirely, not merely outvoted. It fails exactly when preparing the
// query under the same options fails.
func (db *DB) ExplainOpts(query string, opts Options) (string, error) {
	if query == "" {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.programEquations()
	}
	// As in QueryOptsCtx, the constants stay names: explaining a query
	// interns nothing, and an unknown constant is explained by name.
	q, names, err := parser.ParseQueryNames(query)
	if err != nil {
		return "", err
	}
	p, err := db.cachedPrepared(nil, q, opts)
	if err != nil {
		return "", err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := p.choiceLocked()
	if err != nil {
		return "", err
	}
	// The route table memoizes what Explain asks of it.
	p.mu.Lock()
	defer p.mu.Unlock()

	var b strings.Builder
	switch pl := c.plan.(type) {
	case *basePlan:
		fmt.Fprintf(&b, "%s is an extensional predicate; the query is a direct index lookup.\n", q.Pred)
		return b.String(), nil
	case *chainPlan:
		of := ""
		if pl.tr != nil {
			// The start term t(c̄), spelled from the bound constants' names.
			fmt.Fprintf(&b, "adorned program (query %s):\n%s", pl.tr.Adorned.Query, pl.tr.Adorned.Render())
			fmt.Fprintf(&b, "\nbinary-chain program:\n%squery: %s(t(%s), V)\n", pl.tr.Program.Render(db.st), pl.pred, strings.Join(names, ","))
			fmt.Fprintf(&b, "\nequations:\n%s\n", pl.eng.System().Render())
		} else {
			b.WriteString(lemma1Text(p.routes.chain.v.sys))
			if q.Adornment() == "fb" {
				// The engine runs p(b, Y) over the inverse relations: show them.
				fmt.Fprintf(&b, "reversed system, on which %[1]s(X, b) runs as %[1]s(b, Y):\n%s\n", pl.pred, pl.eng.System().Render())
				of = " of the reversed system"
			}
		}
		fmt.Fprintf(&b, "automaton M(e_%s)%s:\n%s\n", pl.pred, of, pl.eng.Automaton(pl.pred))
	default:
		// Not a chain plan: show what the table learned about the paper's
		// route while compiling, if it was asked at all.
		t := p.routes
		if ap, err := t.adornedProgram(); err == nil {
			fmt.Fprintf(&b, "adorned program (query %s):\n%s", ap.Query, ap.Render())
		}
		if t.chain.err != nil {
			fmt.Fprintf(&b, "NOT a chain program: %v\n", t.chain.err)
		}
		if pl, ok := pl.(*bottomUpPlan); ok {
			if c.strategy == QSQNet {
				fmt.Fprintf(&b, "QSQ net for %s^%s: %d nodes\n", p.tmpl.Pred, p.tmpl.Adornment(), pl.prog.Nodes())
			} else {
				fmt.Fprintf(&b, "bottom-up fixpoint over the slice %s depends on (%d of %d rules)\n", q.Pred, len(t.sub.Rules), len(db.prog.Rules))
			}
		}
	}

	b.WriteString("\nplan choice:\n")
	// The binding pattern drives every strategy decision (it decides
	// whether bindings can prune at all), so it is part of the record.
	fmt.Fprintf(&b, "adornment: %s\n", q.Adornment())
	if c.decision != nil {
		b.WriteString(c.decision.Describe())
	} else {
		b.WriteString(p.planChoice(c).Reason)
	}
	b.WriteByte('\n')
	return b.String(), nil
}
