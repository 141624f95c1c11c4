// Package rowownership machine-enforces the take-ownership contract
// introduced in PR 2 and relied on by the scheduler's arenas ever
// since: implementations of ExecStageBatch(hidden, stage, dst) must
// never write to stage-0 input rows (callers retain raw request
// inputs — the scheduler stopped copying them), while rows for later
// stages may be reused in place. Callers, in turn, must not write
// through the rows they handed over after the call.
//
// The check is a small forward alias analysis over each
// ExecStageBatch body: locals bound to hidden[i] (directly, by range,
// or through re-slicing) are tracked, branch conditions that imply
// stage > 0 downgrade an alias to "guarded", and a write through an
// alias that can still reach a stage-0 input row is reported. Writes
// are index assignments, copy(alias, ...), and passing an alias to a
// parameter named dst or out.
package rowownership

import (
	"go/ast"
	"go/token"
	"go/types"

	"eugene/internal/analysis"
)

// Analyzer enforces the ExecStageBatch input-row ownership contract.
var Analyzer = &analysis.Analyzer{
	Name: "rowownership",
	Doc: `check that ExecStageBatch never writes stage-0 input rows

Implementations of ExecStageBatch(hidden [][]float64, stage int, dst
[][]float64) own the scheduler's hottest contract: stage-0 rows are
caller-retained request inputs and must only be read; stage>0 rows may
be reused in place. A write through an alias of hidden[i] is only
legal on paths where the enclosing conditions imply stage > 0.
Callers must not write through the hidden rows after the call.`,
	Run: run,
}

// alias states, ordered worst-last so merging takes the max.
type state int

const (
	clean        state = iota // does not alias an input row
	aliasGuarded              // aliases an input row only on stage>0 paths
	aliasRaw                  // may alias an input row at stage 0
)

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "ExecStageBatch" && matchesContract(pass, fd) {
				checkImpl(pass, fd)
			}
			checkCallers(pass, fd)
		}
	}
	return nil, nil
}

// matchesContract reports whether fd has the ExecStageBatch shape:
// first parameter [][]float64, second int.
func matchesContract(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Signature().Params()
	if params.Len() < 2 {
		return false
	}
	return params.At(0).Type().String() == "[][]float64" &&
		params.At(1).Type().String() == "int"
}

func checkImpl(pass *analysis.Pass, fd *ast.FuncDecl) {
	obj := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	params := obj.Signature().Params()
	c := &checker{
		pass:     pass,
		hidden:   params.At(0),
		stage:    params.At(1),
		reported: map[token.Pos]bool{},
	}
	c.stmts(fd.Body.List, env{}, false)
}

type env map[types.Object]state

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// merge folds the branch result b into e, taking the worse state and
// applying the branch guard: an alias that is raw at the end of a
// stage>0-guarded branch only exists on stage>0 executions, so it
// merges as guarded.
func (e env) merge(b env, branchGuarded bool) {
	for k, v := range b {
		if branchGuarded && v == aliasRaw {
			v = aliasGuarded
		}
		if v > e[k] {
			e[k] = v
		}
	}
}

type checker struct {
	pass     *analysis.Pass
	hidden   types.Object // the hidden [][]float64 parameter
	stage    types.Object // the stage int parameter
	reported map[token.Pos]bool
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// stmts walks a statement list, threading the alias environment.
// guarded is true when every path reaching these statements has
// established stage > 0.
func (c *checker) stmts(list []ast.Stmt, e env, guarded bool) {
	for _, s := range list {
		c.stmt(s, e, guarded)
	}
}

func (c *checker) stmt(s ast.Stmt, e env, guarded bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.exprWrites(rhs, e, guarded)
		}
		for _, lhs := range s.Lhs {
			c.checkWriteTarget(lhs, e, guarded)
		}
		// Update bindings after checking the writes.
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.objOf(id)
				if obj == nil {
					continue
				}
				st := c.classify(s.Rhs[i], e, guarded)
				if _, tracked := e[obj]; tracked || st != clean {
					e[obj] = st
				}
			}
		}
	case *ast.ExprStmt:
		c.exprWrites(s.X, e, guarded)
	case *ast.DeferStmt:
		c.exprWrites(s.Call, e, guarded)
	case *ast.GoStmt:
		c.exprWrites(s.Call, e, guarded)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.exprWrites(r, e, guarded)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.exprWrites(vs.Values[i], e, guarded)
						if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
							if st := c.classify(vs.Values[i], e, guarded); st != clean {
								e[obj] = st
							}
						}
					}
				}
			}
		}
	case *ast.BlockStmt:
		c.stmts(s.List, e, guarded)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, e, guarded)
		}
		c.exprWrites(s.Cond, e, guarded)
		thenGuard := guarded || impliesStagePositive(c.pass, c.stage, s.Cond)
		thenEnv := e.clone()
		c.stmt(s.Body, thenEnv, thenGuard)
		elseEnv := e.clone()
		if s.Else != nil {
			c.stmt(s.Else, elseEnv, guarded)
		}
		merged := env{}
		merged.merge(thenEnv, thenGuard)
		merged.merge(elseEnv, guarded)
		for k := range e {
			delete(e, k)
		}
		e.merge(merged, false)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, e, guarded)
		}
		merged := env{}
		hasDefault := false
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			caseGuard := guarded
			if s.Tag == nil && len(cc.List) > 0 {
				all := true
				for _, cond := range cc.List {
					c.exprWrites(cond, e, guarded)
					if !impliesStagePositive(c.pass, c.stage, cond) {
						all = false
					}
				}
				caseGuard = guarded || all
			}
			if cc.List == nil {
				hasDefault = true
			}
			caseEnv := e.clone()
			c.stmts(cc.Body, caseEnv, caseGuard)
			merged.merge(caseEnv, caseGuard)
		}
		if !hasDefault {
			merged.merge(e, guarded) // fall-through path
		}
		for k := range e {
			delete(e, k)
		}
		e.merge(merged, false)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, e, guarded)
		}
		if s.Cond != nil {
			c.exprWrites(s.Cond, e, guarded)
		}
		// Two passes so aliases bound in one iteration are visible to
		// writes in the next; reports are deduplicated.
		for range 2 {
			bodyEnv := e.clone()
			c.stmt(s.Body, bodyEnv, guarded)
			if s.Post != nil {
				c.stmt(s.Post, bodyEnv, guarded)
			}
			e.merge(bodyEnv, false)
		}
	case *ast.RangeStmt:
		c.exprWrites(s.X, e, guarded)
		rangesInput := c.isHidden(s.X)
		for range 2 {
			bodyEnv := e.clone()
			if rangesInput && s.Value != nil {
				if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok {
					if obj := c.objOf(id); obj != nil {
						bodyEnv[obj] = rowState(guarded)
					}
				}
			}
			c.stmt(s.Body, bodyEnv, guarded)
			e.merge(bodyEnv, false)
		}
	case *ast.IncDecStmt:
		c.checkWriteTarget(s.X, e, guarded)
	}
}

// rowState is the state of a fresh input-row alias created under the
// current guard.
func rowState(guarded bool) state {
	if guarded {
		return aliasGuarded
	}
	return aliasRaw
}

// classify determines what an expression aliases.
func (c *checker) classify(x ast.Expr, e env, guarded bool) state {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if obj := c.objOf(x); obj != nil {
			return e[obj]
		}
	case *ast.IndexExpr:
		if c.isHidden(x.X) {
			return rowState(guarded)
		}
	case *ast.SliceExpr:
		return c.classify(x.X, e, guarded)
	}
	return clean
}

// checkWriteTarget flags assignment targets that write through an
// input-row alias: row[j] = v, hidden[i][j] = v.
func (c *checker) checkWriteTarget(lhs ast.Expr, e env, guarded bool) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	c.checkRowWrite(ix.X, e, guarded, ix.Pos(), "element write")
}

// checkRowWrite reports if row (an expression) may alias a stage-0
// input row here.
func (c *checker) checkRowWrite(row ast.Expr, e env, guarded bool, pos token.Pos, op string) {
	if c.classify(row, e, guarded) == aliasRaw && !guarded {
		c.report(pos, "%s may modify a stage-0 input row of ExecStageBatch: callers retain raw inputs, writes are only legal under a stage > 0 guard", op)
	}
}

// exprWrites scans an expression tree for call-based writes: the copy
// builtin and calls whose parameter is named dst or out.
func (c *checker) exprWrites(x ast.Expr, e env, guarded bool) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				c.checkRowWrite(call.Args[0], e, guarded, call.Pos(), "copy into")
				return true
			}
		}
		sig := calleeSignature(c.pass, call)
		if sig == nil {
			return true
		}
		for i, arg := range call.Args {
			if i >= sig.Params().Len() {
				break
			}
			p := sig.Params().At(i)
			if name := p.Name(); name == "dst" || name == "out" {
				if _, isSlice := p.Type().Underlying().(*types.Slice); isSlice {
					c.checkRowWrite(arg, e, guarded, arg.Pos(), "passing as "+name+" to "+calleeName(call))
				}
			}
		}
		return true
	})
}

// checkCallers flags writes through the hidden rows after an
// ExecStageBatch call in the same function: the callee may still hold
// (or have returned) those rows, and stage-0 callers retain raw
// request inputs.
func checkCallers(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Find ExecStageBatch call sites and the object passed as hidden.
	type site struct {
		obj types.Object
		end token.Pos
	}
	var sites []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "ExecStageBatch" {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				sites = append(sites, site{obj: obj, end: call.End()})
			}
		}
		return true
	})
	if len(sites) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				continue
			}
			// rows[i][j] = v after the call: the inner index base must
			// itself be an index over the handed-over slice.
			inner, ok := ast.Unparen(ix.X).(*ast.IndexExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(inner.X).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				continue
			}
			for _, s := range sites {
				if s.obj == obj && ix.Pos() > s.end {
					pass.Reportf(ix.Pos(), "write to a row of %s after passing it to ExecStageBatch: the executor and its arenas may still reference these rows", id.Name)
				}
			}
		}
		return true
	})
}

// objOf resolves an identifier to its object (definition or use).
func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// isHidden reports whether x denotes the hidden parameter.
func (c *checker) isHidden(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && c.objOf(id) == c.hidden
}

// impliesStagePositive reports whether cond guarantees stage > 0.
func impliesStagePositive(pass *analysis.Pass, stage types.Object, cond ast.Expr) bool {
	switch b := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch b.Op {
		case token.LAND:
			return impliesStagePositive(pass, stage, b.X) || impliesStagePositive(pass, stage, b.Y)
		case token.LOR:
			return impliesStagePositive(pass, stage, b.X) && impliesStagePositive(pass, stage, b.Y)
		case token.GTR: // stage > 0
			return isStageIdent(pass, stage, b.X) && isIntLit(b.Y, 0)
		case token.GEQ: // stage >= 1
			return isStageIdent(pass, stage, b.X) && isIntLit(b.Y, 1)
		case token.LSS: // 0 < stage
			return isIntLit(b.X, 0) && isStageIdent(pass, stage, b.Y)
		case token.LEQ: // 1 <= stage
			return isIntLit(b.X, 1) && isStageIdent(pass, stage, b.Y)
		case token.NEQ: // stage != 0 (stage is validated non-negative)
			return (isStageIdent(pass, stage, b.X) && isIntLit(b.Y, 0)) ||
				(isIntLit(b.X, 0) && isStageIdent(pass, stage, b.Y))
		}
	}
	return false
}

func isStageIdent(pass *analysis.Pass, stage types.Object, x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == stage
}

func isIntLit(x ast.Expr, v int64) bool {
	tv, ok := x.(*ast.BasicLit)
	if !ok {
		return false
	}
	return tv.Value == "0" && v == 0 || tv.Value == "1" && v == 1
}

// calleeSignature returns the signature of a call's static callee; for
// a generic callee, instantiated explicitly (convert[float64](...)) or
// by inference, the generic one, whose parameter names are what count.
func calleeSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	switch fun := uninstantiated(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn.Signature()
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn.Signature()
		}
	}
	return nil
}

// uninstantiated strips parentheses and explicit type arguments from a
// call's function expression.
func uninstantiated(fun ast.Expr) ast.Expr {
	switch x := ast.Unparen(fun).(type) {
	case *ast.IndexExpr:
		return ast.Unparen(x.X)
	case *ast.IndexListExpr:
		return ast.Unparen(x.X)
	default:
		return x
	}
}

// calleeName renders the callee for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fun := uninstantiated(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
