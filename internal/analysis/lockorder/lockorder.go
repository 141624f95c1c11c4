// Package lockorder builds a per-package lock-acquisition graph and
// reports cycles as potential deadlocks. An edge A→B is recorded
// whenever lock B is acquired while A is held — directly, or
// transitively through calls to same-package functions (a function
// that locks nodesMu adds a held→nodesMu edge at every call site that
// holds a lock). Two goroutines traversing a cycle's edges in opposite
// directions can each block on the lock the other holds.
//
// Legal orders are declared in the analyzed source:
//
//	//eugene:lockorder Router.devMu before Router.nodesMu
//
// names a permitted edge (the left lock may be held while acquiring
// the right). Declared edges are excluded from cycle detection, and an
// acquisition in the *opposite* direction of a declared order is
// reported directly, even without a completed cycle. Directives naming
// locks the package never acquires are reported as stale.
//
// Locks are identified by the types.Object of their field or variable,
// so distinct instances sharing a field (two nodes' mu) collapse to
// one node; self-edges from such instance pairs are therefore skipped
// rather than reported (hand-over-hand locking of siblings is
// indistinguishable from re-acquisition at this granularity).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"eugene/internal/analysis"
	"eugene/internal/analysis/lockflow"
)

// Analyzer reports lock-acquisition cycles and declared-order
// violations.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `report lock-acquisition cycles (potential deadlocks) and violations of declared lock orders

Builds the package's lock graph: an edge A→B when B is acquired while A
is held, flow-sensitively and through same-package calls. Cycles are
potential deadlocks. //eugene:lockorder A before B declares a legal
edge; acquiring against a declared order is reported even without a
full cycle.`,
	Run: run,
}

// directiveRe matches //eugene:lockorder <A> before <B> (also in
// /* */ form, which fixtures use to pair a directive with a trailing
// want comment).
var directiveRe = regexp.MustCompile(`^(?://|/\*)\s*eugene:lockorder\s+(\S+)\s+before\s+(\S+?)\s*(?:\*/)?\s*$`)

// edgeKey identifies an edge by its endpoints.
type edgeKey struct{ from, to types.Object }

// edge is one observed A→B acquisition order.
type edge struct {
	from, to types.Object
	pos      token.Pos // position of the acquisition (or call) creating it
	via      string    // callee name for transitive edges, "" for direct
}

// summary is one function's contribution to the package graph.
type summary struct {
	acquires map[types.Object]lockflow.Lock // locks taken anywhere in the body
	calls    []callSite
}

type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []lockflow.Lock
}

func run(pass *analysis.Pass) (any, error) {
	summaries := map[*types.Func]*summary{}
	names := map[types.Object]string{}
	var edges []edge

	addEdge := func(from, to lockflow.Lock, pos token.Pos, via string) {
		if from.Obj == to.Obj {
			return
		}
		edges = append(edges, edge{from: from.Obj, to: to.Obj, pos: pos, via: via})
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnObj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &summary{acquires: map[types.Object]lockflow.Lock{}}
			summaries[fnObj] = sum
			lockflow.Walk(pass, fd.Body, lockflow.Events{
				Acquire: func(lk lockflow.Lock, pos token.Pos, held []lockflow.Lock) {
					names[lk.Obj] = lk.Name
					sum.acquires[lk.Obj] = lk
					for _, h := range held {
						addEdge(h, lk, pos, "")
					}
				},
				Node: func(n ast.Node, held []lockflow.Lock) {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					callee := localCallee(pass, call)
					if callee == nil {
						return
					}
					sum.calls = append(sum.calls, callSite{
						callee: callee,
						pos:    call.Pos(),
						held:   append([]lockflow.Lock(nil), held...),
					})
				},
			})
		}
	}

	// Fixpoint: fold every function's transitive acquisitions through
	// the same-package call graph.
	reach := map[*types.Func]map[types.Object]lockflow.Lock{}
	for fn, sum := range summaries {
		r := map[types.Object]lockflow.Lock{}
		for o, lk := range sum.acquires {
			r[o] = lk
		}
		reach[fn] = r
	}
	for changed := true; changed; {
		changed = false
		for fn, sum := range summaries {
			r := reach[fn]
			for _, cs := range sum.calls {
				for o, lk := range reach[cs.callee] {
					if _, ok := r[o]; !ok {
						r[o] = lk
						changed = true
					}
				}
			}
		}
	}
	for _, sum := range summaries {
		for _, cs := range sum.calls {
			if len(cs.held) == 0 {
				continue
			}
			for _, lk := range reach[cs.callee] {
				for _, h := range cs.held {
					addEdge(h, lk, cs.pos, cs.callee.Name())
				}
			}
		}
	}

	// Deduplicate edges by (from, to), keeping the earliest position so
	// reports are deterministic.
	byKey := map[edgeKey]edge{}
	for _, e := range edges {
		k := edgeKey{e.from, e.to}
		if prev, ok := byKey[k]; !ok || e.pos < prev.pos {
			byKey[k] = e
		}
	}

	// Apply the declared orders.
	byName := map[string]types.Object{}
	for o, n := range names {
		byName[n] = o
	}
	for _, d := range directives(pass) {
		a, aok := byName[d.a]
		b, bok := byName[d.b]
		if !aok || !bok {
			missing := d.a
			if aok {
				missing = d.b
			}
			pass.Reportf(d.pos, "lockorder directive names %q, but the package never acquires a lock by that name", missing)
			continue
		}
		delete(byKey, edgeKey{a, b}) // the declared direction is legal
		if rev, ok := byKey[edgeKey{b, a}]; ok {
			pass.Reportf(rev.pos, "acquires %s while holding %s%s, violating the declared lock order %q before %q",
				names[a], names[b], viaSuffix(rev), d.a, d.b)
			delete(byKey, edgeKey{b, a})
		}
	}

	reportCycles(pass, byKey, names)
	return nil, nil
}

func viaSuffix(e edge) string {
	if e.via == "" {
		return ""
	}
	return fmt.Sprintf(" (via call to %s)", e.via)
}

// localCallee resolves a call to a function or concrete method of the
// package under analysis; interface method calls are unresolvable
// statically and return nil.
func localCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}

// directive is one parsed //eugene:lockorder comment.
type directive struct {
	a, b string
	pos  token.Pos
}

func directives(pass *analysis.Pass) []directive {
	var out []directive
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
					out = append(out, directive{a: m[1], b: m[2], pos: c.Pos()})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// reportCycles finds cycles in the residual graph by DFS and reports
// each once, canonicalized to start at its lexically-smallest lock.
func reportCycles(pass *analysis.Pass, byKey map[edgeKey]edge, names map[types.Object]string) {
	adj := map[types.Object][]edge{}
	var nodes []types.Object
	for _, e := range byKey {
		if len(adj[e.from]) == 0 {
			nodes = append(nodes, e.from)
		}
		adj[e.from] = append(adj[e.from], e)
	}
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool { return names[es[i].to] < names[es[j].to] })
	}
	sort.Slice(nodes, func(i, j int) bool { return names[nodes[i]] < names[nodes[j]] })

	seen := map[string]bool{}
	state := map[types.Object]int{} // 0 unvisited, 1 on stack, 2 done
	var stack []edge
	var dfs func(n types.Object)
	dfs = func(n types.Object) {
		state[n] = 1
		for _, e := range adj[n] {
			switch state[e.to] {
			case 0:
				stack = append(stack, e)
				dfs(e.to)
				stack = stack[:len(stack)-1]
			case 1:
				cycle := append([]edge(nil), stack...)
				cycle = append(cycle, e)
				// Trim the prefix before the cycle entry point.
				for i, ce := range cycle {
					if ce.from == e.to {
						cycle = cycle[i:]
						break
					}
				}
				reportCycle(pass, cycle, names, seen)
			}
		}
		state[n] = 2
	}
	for _, n := range nodes {
		if state[n] == 0 {
			dfs(n)
		}
	}
}

func reportCycle(pass *analysis.Pass, cycle []edge, names map[types.Object]string, seen map[string]bool) {
	// Rotate so the cycle starts at its smallest lock name.
	minI := 0
	for i := range cycle {
		if names[cycle[i].from] < names[cycle[minI].from] {
			minI = i
		}
	}
	rotated := append(append([]edge(nil), cycle[minI:]...), cycle[:minI]...)
	parts := make([]string, 0, len(rotated)+1)
	for _, e := range rotated {
		parts = append(parts, names[e.from])
	}
	parts = append(parts, names[rotated[0].from])
	desc := strings.Join(parts, " → ")
	if seen[desc] {
		return
	}
	seen[desc] = true
	pass.Reportf(rotated[0].pos, "lock-order cycle %s is a potential deadlock%s; declare the intended order with //eugene:lockorder if one direction is legal",
		desc, viaSuffix(rotated[0]))
}
