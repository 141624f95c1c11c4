// Package locks checks how a package takes and holds its
// sync.Mutex/sync.RWMutex locks, in one flow-sensitive walk of each
// function body that feeds two rules.
//
// Lock order: an edge A→B is recorded whenever B is acquired while A is
// held, directly or through a call to a same-package function that
// takes B. A cycle is a potential deadlock: two goroutines traversing
// its edges in opposite directions can each block on the lock the other
// holds. A legal nesting is declared where the locks live,
//
//	//eugene:lockorder Router.devMu before Router.nodesMu
//
// after which an acquisition against it is reported even without a
// completed cycle, and a directive naming a lock the package never
// acquires is stale. A directive legalizes a direction, not a cycle: the
// declared edge stays in cycle detection, so A before B together with
// B→C and C→A is still reported.
//
// Blocking under a lock: a blocked holder stalls every goroutine that
// needs the lock, so the calls in blockingCalls, channel sends and
// receives outside a select with a default clause, and selects without
// one are reported while any lock is held. sync.Cond.Wait is exempt by
// contract. This rule is intraprocedural.
//
// A lock is the types.Object of the field or variable it lives in, so
// `sh.mu` is one lock in every method whatever the receiver's name, and
// two instances sharing a field collapse to one (their self-edges are
// skipped: hand-over-hand locking of siblings looks like
// re-acquisition). The walk errs toward silence: branches merge by
// intersection, loop bodies do not leak acquisitions, a deferred unlock
// keeps the lock held to the end, and branches that terminate (return,
// break, panic, os.Exit, log.Fatal) leave the merge. TryLock and
// embedded mutexes are not modeled.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"

	"eugene/internal/analysis"
)

// Analyzer reports lock-order cycles, acquisitions against a declared
// order, and blocking operations under a held mutex.
var Analyzer = &analysis.Analyzer{
	Name: "locks",
	Doc: `report lock-order cycles, violations of declared lock orders, and blocking operations while a mutex is held

Builds the package's lock graph: an edge A→B when B is acquired while A
is held, flow-sensitively and through same-package calls. Cycles are
potential deadlocks. //eugene:lockorder A before B declares a legal
direction, not a legal cycle; acquiring against a declared order is
reported even without a full cycle. The same walk reports I/O, sleeps, channel waits and
goroutine joins under a lock: channel operations are exempt inside a
select with a default clause, sync.Cond.Wait by contract.`,
	Run: run,
}

// lock identifies one mutex: obj is the field or variable object (the
// package-wide identity), name is the display form, "Type.field" for a
// struct field or the bare name for a variable.
type lock struct {
	obj  types.Object
	name string
}

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
	acquires map[types.Object]lock // locks taken anywhere in the body
	calls    []callSite
}

type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []lock
}

// checker is one package's analysis: the pass, and the graph its walks
// have built so far.
type checker struct {
	pass  *analysis.Pass
	names map[types.Object]string
	edges []edge
	funcs map[*types.Func]*summary
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, names: map[types.Object]string{}, funcs: map[*types.Func]*summary{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &summary{acquires: map[types.Object]lock{}}
			c.funcs[fn] = sum
			w := &walker{checker: c, sum: sum}
			w.stmts(fd.Body.List, &heldSet{})
		}
	}
	c.checkOrder()
	return nil, nil
}

func (c *checker) addEdge(from, to lock, pos token.Pos, via string) {
	if from.obj != to.obj {
		c.edges = append(c.edges, edge{from: from.obj, to: to.obj, pos: pos, via: via})
	}
}

// checkOrder folds the calls into the graph, applies the declared
// orders and reports what they leave: violations, stale directives and
// cycles.
func (c *checker) checkOrder() {
	// Fixpoint: fold every function's transitive acquisitions through
	// the same-package call graph.
	reach := map[*types.Func]map[types.Object]lock{}
	for fn, sum := range c.funcs {
		reach[fn] = maps.Clone(sum.acquires)
	}
	for changed := true; changed; {
		changed = false
		for fn, sum := range c.funcs {
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
	for _, sum := range c.funcs {
		for _, cs := range sum.calls {
			for _, lk := range reach[cs.callee] {
				for _, h := range cs.held {
					c.addEdge(h, lk, cs.pos, cs.callee.Name())
				}
			}
		}
	}

	// Deduplicate edges by (from, to), keeping the earliest position so
	// reports are deterministic.
	byKey := map[edgeKey]edge{}
	for _, e := range c.edges {
		k := edgeKey{e.from, e.to}
		if prev, ok := byKey[k]; !ok || e.pos < prev.pos {
			byKey[k] = e
		}
	}

	byName := map[string]types.Object{}
	for o, n := range c.names {
		byName[n] = o
	}
	for _, d := range directives(c.pass) {
		a, aok := byName[d.a]
		b, bok := byName[d.b]
		if !aok || !bok {
			missing := d.a
			if aok {
				missing = d.b
			}
			c.pass.Reportf(d.pos, "lockorder directive names %q, but the package never acquires a lock by that name", missing)
			continue
		}
		if rev, ok := byKey[edgeKey{b, a}]; ok {
			c.pass.Reportf(rev.pos, "acquires %s while holding %s%s, violating the declared lock order %q before %q",
				c.names[a], c.names[b], viaSuffix(rev), d.a, d.b)
			delete(byKey, edgeKey{b, a})
		}
	}

	c.reportCycles(byKey)
}

func viaSuffix(e edge) string {
	if e.via == "" {
		return ""
	}
	return fmt.Sprintf(" (via call to %s)", e.via)
}

// directiveRe matches //eugene:lockorder <A> before <B> (also in
// /* */ form, which fixtures use to pair a directive with a trailing
// want comment).
var directiveRe = regexp.MustCompile(`^(?://|/\*)\s*eugene:lockorder\s+(\S+)\s+before\s+(\S+?)\s*(?:\*/)?\s*$`)

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
func (c *checker) reportCycles(byKey map[edgeKey]edge) {
	names := c.names
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
				cycle := append(slices.Clone(stack), e)
				// Trim the prefix before the cycle entry point.
				for i, ce := range cycle {
					if ce.from == e.to {
						cycle = cycle[i:]
						break
					}
				}
				c.reportCycle(cycle, seen)
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

func (c *checker) reportCycle(cycle []edge, seen map[string]bool) {
	// Rotate so the cycle starts at its smallest lock name.
	minI := 0
	for i := range cycle {
		if c.names[cycle[i].from] < c.names[cycle[minI].from] {
			minI = i
		}
	}
	rotated := append(slices.Clone(cycle[minI:]), cycle[:minI]...)
	parts := make([]string, 0, len(rotated)+1)
	for _, e := range rotated {
		parts = append(parts, c.names[e.from])
	}
	parts = append(parts, c.names[rotated[0].from])
	desc := strings.Join(parts, " → ")
	if seen[desc] {
		return
	}
	seen[desc] = true
	c.pass.Reportf(rotated[0].pos, "lock-order cycle %s is a potential deadlock%s; declare the intended order with //eugene:lockorder if one direction is legal",
		desc, viaSuffix(rotated[0]))
}

// blockingCall names one known-blocking function: package path,
// receiver type name ("" for package-level functions), and name.
type blockingCall struct {
	pkg, recv, name string
}

var blockingCalls = []blockingCall{
	{"time", "", "Sleep"},
	{"sync", "WaitGroup", "Wait"},
	{"net/http", "Client", "Do"},
	{"net/http", "Client", "Get"},
	{"net/http", "Client", "Post"},
	{"net/http", "Client", "PostForm"},
	{"net/http", "Client", "Head"},
	{"net/http", "", "Get"},
	{"net/http", "", "Post"},
	{"net/http", "", "PostForm"},
	{"net/http", "", "Head"},
	{"net", "", "Dial"},
	{"net", "", "DialTimeout"},
	{"net", "Conn", "Read"},
	{"net", "Conn", "Write"},
	{"os", "File", "Read"},
	{"os", "File", "ReadAt"},
	{"os", "File", "Write"},
	{"os", "File", "WriteAt"},
	{"os", "File", "Sync"},
	{"os", "", "Open"},
	{"os", "", "Create"},
	{"os", "", "ReadFile"},
	{"os", "", "WriteFile"},
	{"io", "", "ReadAll"},
	{"io", "", "Copy"},
	// Repo-specific teardowns that join goroutine pools (wg.Wait
	// inside): waiting for workers while holding a lock the workers'
	// completion path needs is a deadlock, not just a convoy.
	{"eugene/internal/sched", "Live", "Stop"},
	{"eugene/internal/cluster", "Router", "Close"},
}

// walker walks one function body, keeping the set of locks held.
type walker struct {
	*checker
	sum *summary
}

// acquire records lk taken at pos while held are held.
func (w *walker) acquire(lk lock, pos token.Pos, held []lock) {
	w.names[lk.obj] = lk.name
	w.sum.acquires[lk.obj] = lk
	for _, h := range held {
		w.addEdge(h, lk, pos, "")
	}
}

// node sees every visited expression or statement with the locks held
// there: it records the calls to same-package functions for the order
// graph and reports what blocks under a lock.
func (w *walker) node(n ast.Node, held []lock) {
	if call, ok := n.(*ast.CallExpr); ok {
		if callee := w.localCallee(call); callee != nil {
			w.sum.calls = append(w.sum.calls, callSite{callee: callee, pos: call.Pos(), held: slices.Clone(held)})
		}
	}
	if len(held) == 0 {
		return
	}
	holding := held[len(held)-1].name
	switch n := n.(type) {
	case *ast.SelectStmt:
		if !hasDefault(n) {
			w.pass.Reportf(n.Pos(), "select without a default clause blocks while holding %s", holding)
		}
	case *ast.SendStmt:
		w.pass.Reportf(n.Pos(), "channel send may block while holding %s; use a select with default or move it outside the lock", holding)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.pass.Reportf(n.Pos(), "channel receive may block while holding %s; use a select with default or move it outside the lock", holding)
		}
	case *ast.CallExpr:
		if name, ok := w.blockingCall(n); ok {
			w.pass.Reportf(n.Pos(), "call to %s blocks while holding %s", name, holding)
		}
	}
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// calledFunc resolves the function or method a call names, or nil for
// a call through a value.
func (c *checker) calledFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// localCallee resolves a call to a function or concrete method of the
// package under analysis; interface method calls are unresolvable
// statically and return nil.
func (c *checker) localCallee(call *ast.CallExpr) *types.Func {
	fn := c.calledFunc(call)
	if fn == nil || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}

// blockingCall matches call against the blocking table; it returns the
// display name of the matched function.
func (c *checker) blockingCall(call *ast.CallExpr) (string, bool) {
	fn := c.calledFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	recv := ""
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		recv = namedTypeName(r.Type())
	}
	for _, b := range blockingCalls {
		if fn.Pkg().Path() == b.pkg && fn.Name() == b.name && recv == b.recv {
			if b.recv == "" {
				return b.pkg + "." + b.name, true
			}
			return b.recv + "." + b.name, true
		}
	}
	return "", false
}

// lockCall classifies call as a mutex acquisition or release. acquire
// is true for Lock/RLock, false for Unlock/RUnlock; ok is false when
// the call is not a mutex method or the receiver cannot be resolved to
// a field or variable.
func (c *checker) lockCall(call *ast.CallExpr) (lk lock, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lock{}, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lock{}, false, false
	}
	fn := c.calledFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lock{}, false, false
	}
	lk, ok = c.resolveLock(sel.X)
	return lk, acquire, ok
}

// resolveLock maps the receiver expression of a mutex method to a lock
// identity: `x.mu` to the mu field object of x's named type, a plain
// identifier to its variable object.
func (c *checker) resolveLock(e ast.Expr) (lock, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj := c.pass.TypesInfo.Uses[e.Sel]
		name := namedTypeName(c.pass.TypesInfo.TypeOf(e.X))
		if obj == nil || name == "" {
			return lock{}, false
		}
		return lock{obj: obj, name: name + "." + e.Sel.Name}, true
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			return lock{obj: obj, name: e.Name}, true
		}
	}
	return lock{}, false
}

// namedTypeName returns the name of t's (pointer-stripped) named type,
// or "" when t has none.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// heldSet is the ordered set of locks currently held.
type heldSet struct {
	locks []lock
}

func (h *heldSet) add(lk lock) {
	if !h.has(lk.obj) {
		h.locks = append(h.locks, lk)
	}
}

func (h *heldSet) has(obj types.Object) bool {
	return slices.ContainsFunc(h.locks, func(l lock) bool { return l.obj == obj })
}

func (h *heldSet) remove(obj types.Object) {
	h.locks = slices.DeleteFunc(h.locks, func(l lock) bool { return l.obj == obj })
}

func (h *heldSet) clone() *heldSet {
	return &heldSet{locks: slices.Clone(h.locks)}
}

// merge sets h to the locks held on every path in through, the
// fall-through outcomes of a branch; it reports false when there are
// none, that is when no path falls through.
func (h *heldSet) merge(through []*heldSet) bool {
	if len(through) == 0 {
		return false
	}
	h.locks = slices.DeleteFunc(slices.Clone(through[0].locks), func(l lock) bool {
		return slices.ContainsFunc(through[1:], func(o *heldSet) bool { return !o.has(l.obj) })
	})
	return true
}

// stmts walks a statement list, mutating held in place; it reports
// whether the list definitely does not fall through.
func (w *walker) stmts(list []ast.Stmt, held *heldSet) bool {
	for _, s := range list {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, held *heldSet) (terminated bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if lk, acquire, ok := w.lockCall(call); ok {
				if acquire {
					w.acquire(lk, call.Pos(), held.locks)
					held.add(lk)
				} else {
					held.remove(lk.obj)
				}
				return false
			}
			w.visit(s.X, held)
			return w.isTerminalCall(call)
		}
		w.visit(s.X, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.visit(r, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this path; fallthrough transfers to a
		// clause walked separately. All are excluded from the merge.
		return true
	case *ast.DeferStmt:
		// A deferred Unlock (direct or inside a deferred function
		// literal) keeps the lock held for the rest of the function,
		// which is the walker's default; other deferred calls run at
		// exit and are not visited.
		for _, a := range s.Call.Args {
			w.visit(a, held)
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.visit(a, held)
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.visit(s.Cond, held)
		thenHeld, elseHeld := held.clone(), held.clone()
		var through []*heldSet
		if !w.stmts(s.Body.List, thenHeld) {
			through = append(through, thenHeld)
		}
		if s.Else == nil || !w.stmt(s.Else, elseHeld) {
			through = append(through, elseHeld)
		}
		return !held.merge(through)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.visit(s.Cond, held)
		}
		body := held.clone()
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.visit(s.X, held)
		w.stmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		return w.caseClauses(s.Init, s.Tag, nil, s.Body, held)
	case *ast.TypeSwitchStmt:
		return w.caseClauses(s.Init, nil, s.Assign, s.Body, held)
	case *ast.SelectStmt:
		// The select itself is judged whole (a default clause makes it
		// non-blocking), its communication clauses not at all; the
		// clause bodies are walked like switch cases. A select always
		// runs some clause, so there is no implicit fall-through path.
		w.node(s, held.locks)
		var through []*heldSet
		for _, c := range s.Body.List {
			ch := held.clone()
			if !w.stmts(c.(*ast.CommClause).Body, ch) {
				through = append(through, ch)
			}
		}
		return !held.merge(through)
	default:
		w.visit(s, held)
	}
	return false
}

// caseClauses walks a switch or type switch: each clause runs on its
// own copy of the held set and the fall-through outcomes are
// intersected. Without a default clause the zero-match path keeps the
// entry set.
func (w *walker) caseClauses(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, held *heldSet) bool {
	if init != nil {
		w.stmt(init, held)
	}
	if tag != nil {
		w.visit(tag, held)
	}
	if assign != nil {
		w.visit(assign, held)
	}
	var through []*heldSet
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.visit(e, held)
		}
		ch := held.clone()
		if !w.stmts(cc.Body, ch) {
			through = append(through, ch)
		}
	}
	if !hasDefault {
		through = append(through, held.clone())
	}
	return !held.merge(through)
}

// visit delivers n and its children to node, skipping nested function
// literals (their bodies execute elsewhere).
func (w *walker) visit(n ast.Node, held *heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x != nil {
			w.node(x, held.locks)
		}
		return true
	})
}

// isTerminalCall reports calls that never return: panic, os.Exit,
// runtime.Goexit, and the log.Fatal family.
func (w *walker) isTerminalCall(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	}
	fn := w.calledFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "os.Exit", "runtime.Goexit",
		"log.Fatal", "log.Fatalf", "log.Fatalln", "log.Panic", "log.Panicf", "log.Panicln":
		return true
	}
	return false
}
