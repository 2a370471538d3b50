package framework

// AST-level control-flow graph construction for the dataflow layer.
//
// The repository cannot import golang.org/x/tools/go/cfg, so this file
// builds the same shape directly from go/ast: basic blocks of "atomic"
// statements connected by successor edges. Atomic statements are the
// forms a transfer function evaluates in one step — assignments,
// declarations, inc/dec, sends, returns, expression statements — plus
// two header conventions:
//
//   - branch conditions (if/for/switch tags, case expressions) appear
//     as fabricated *ast.ExprStmt nodes wrapping the condition, so a
//     transfer function sees every evaluated expression exactly once;
//   - a *ast.RangeStmt appears by itself at the head of its loop and
//     stands for one iteration's key/value binding. Transfer functions
//     must treat it atomically and must not descend into its Body.
//
// The graph is conservative rather than exact: `goto` ends its block
// without an edge (no gotos exist in the repository), and case
// expressions of a switch are all evaluated in the header block even
// though Go stops at the first match. Both approximations only ever
// add join points, which weakens facts — they cannot invent them.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a straight-line run of atomic statements
// with the successor edges taken after the last one.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry.
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*loopFrame)}
	b.cur = b.newBlock()
	b.stmt(body)
	return b.cfg
}

// loopFrame records the jump targets of one enclosing breakable
// construct (loop or switch).
type loopFrame struct {
	// cont is the continue target (nil for switches).
	cont *Block
	// brk is the break target.
	brk *Block
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	loops  []*loopFrame
	labels map[string]*loopFrame
	// pendingLabel names the label attached to the next loop/switch.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(preds ...*Block) *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	for _, p := range preds {
		p.Succs = append(p.Succs, blk)
	}
	return blk
}

// emit appends an atomic statement to the current block.
func (b *cfgBuilder) emit(s ast.Stmt) { b.cur.Stmts = append(b.cur.Stmts, s) }

// emitExpr appends a fabricated expression-statement header so the
// transfer function evaluates cond.
func (b *cfgBuilder) emitExpr(cond ast.Expr) {
	if cond != nil {
		b.emit(&ast.ExprStmt{X: cond})
	}
}

// terminate ends the current block with no successors and parks the
// builder on a fresh unreachable block (code after return/break).
func (b *cfgBuilder) terminate() { b.cur = b.newBlock() }

// frame returns the jump frame for a branch statement: the innermost
// one, or the labeled one.
func (b *cfgBuilder) frame(label *ast.Ident, needCont bool) *loopFrame {
	if label != nil {
		if f := b.labels[label.Name]; f != nil {
			return f
		}
		return nil
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		if !needCont || b.loops[i].cont != nil {
			return b.loops[i]
		}
	}
	return nil
}

// pushLoop registers a frame (and any pending label) for the duration
// of fn.
func (b *cfgBuilder) pushLoop(f *loopFrame, fn func()) {
	label := b.pendingLabel
	b.pendingLabel = ""
	b.loops = append(b.loops, f)
	if label != "" {
		b.labels[label] = f
	}
	fn()
	b.loops = b.loops[:len(b.loops)-1]
	if label != "" {
		delete(b.labels, label)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range s.List {
			b.stmt(inner)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.emitExpr(s.Cond)
		head := b.cur
		thenBlk := b.newBlock(head)
		b.cur = thenBlk
		b.stmt(s.Body)
		thenEnd := b.cur
		elseEnd := head
		if s.Else != nil {
			elseBlk := b.newBlock(head)
			b.cur = elseBlk
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		b.cur = b.newBlock(thenEnd, elseEnd)
	case *ast.ForStmt:
		b.stmt(s.Init)
		head := b.newBlock(b.cur)
		b.cur = head
		b.emitExpr(s.Cond)
		condEnd := b.cur // emitExpr never splits, but keep the name honest
		exit := b.newBlock()
		if s.Cond != nil {
			condEnd.Succs = append(condEnd.Succs, exit)
		}
		post := b.newBlock()
		post.Succs = append(post.Succs, head)
		b.pushLoop(&loopFrame{cont: post, brk: exit}, func() {
			body := b.newBlock(condEnd)
			b.cur = body
			b.stmt(s.Body)
			b.cur.Succs = append(b.cur.Succs, post)
		})
		b.cur = post
		b.stmt(s.Post)
		b.cur = exit
	case *ast.RangeStmt:
		b.emitExpr(s.X)
		head := b.newBlock(b.cur)
		head.Stmts = append(head.Stmts, s) // header convention: one binding
		exit := b.newBlock(head)
		b.pushLoop(&loopFrame{cont: head, brk: exit}, func() {
			body := b.newBlock(head)
			b.cur = body
			b.stmt(s.Body)
			b.cur.Succs = append(b.cur.Succs, head)
		})
		b.cur = exit
	case *ast.SwitchStmt:
		b.stmt(s.Init)
		b.emitExpr(s.Tag)
		b.switchClauses(s.Body.List, func(c ast.Stmt) ([]ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				b.emitExpr(e)
			}
			return cc.Body, cc.List == nil
		})
	case *ast.TypeSwitchStmt:
		b.stmt(s.Init)
		b.stmt(s.Assign)
		b.switchClauses(s.Body.List, func(c ast.Stmt) ([]ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return cc.Body, cc.List == nil
		})
	case *ast.SelectStmt:
		b.switchClauses(s.Body.List, func(c ast.Stmt) ([]ast.Stmt, bool) {
			cc := c.(*ast.CommClause)
			body := cc.Body
			if cc.Comm != nil {
				body = append([]ast.Stmt{cc.Comm}, body...)
			}
			return body, cc.Comm == nil
		})
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.frame(s.Label, false); f != nil {
				b.cur.Succs = append(b.cur.Succs, f.brk)
			}
			b.terminate()
		case token.CONTINUE:
			if f := b.frame(s.Label, true); f != nil {
				b.cur.Succs = append(b.cur.Succs, f.cont)
			}
			b.terminate()
		case token.GOTO:
			b.terminate() // no gotos in this repository; end the block
		case token.FALLTHROUGH:
			// handled by switchClauses via clause inspection
		}
	case *ast.ReturnStmt:
		b.emit(s)
		b.terminate()
	default:
		// Assign, Decl, IncDec, Expr, Send, Defer, Go, Empty.
		b.emit(s)
	}
}

// switchClauses wires the clause bodies of a switch/select: every
// clause starts from the header, fallthrough chains to the next
// clause, and all clause ends (plus the header, when there is no
// default clause) meet at the merge block.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, split func(ast.Stmt) ([]ast.Stmt, bool)) {
	head := b.cur
	merge := b.newBlock()
	hasDefault := false
	frame := &loopFrame{brk: merge}

	// First pass: create each clause's entry block so fallthrough can
	// target the next clause.
	entries := make([]*Block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	for i, c := range clauses {
		body, isDefault := split(c)
		if isDefault {
			hasDefault = true
		}
		entries[i] = b.newBlock(head)
		bodies[i] = body
	}
	b.pushLoop(frame, func() {
		for i := range clauses {
			b.cur = entries[i]
			fallsThrough := false
			for _, st := range bodies[i] {
				if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fallsThrough = true
					continue
				}
				b.stmt(st)
			}
			if fallsThrough && i+1 < len(entries) {
				b.cur.Succs = append(b.cur.Succs, entries[i+1])
			} else {
				b.cur.Succs = append(b.cur.Succs, merge)
			}
		}
	})
	if !hasDefault || len(clauses) == 0 {
		head.Succs = append(head.Succs, merge)
	}
	b.cur = merge
}
