// Package ctxflow enforces the repo's context-threading discipline:
//
//  1. context.Background() / context.TODO() belong in func main (and
//     tests, which ncqvet does not analyze). Anywhere else they sever
//     the cancellation chain: a handler's deadline no longer reaches
//     the fan-out under it. A deliberate root — a signature that
//     predates ctx plumbing, a detached poller — is annotated with
//     //lint:ncqvet-ignore and a reason.
//
//  2. a function holding a context must not call a context-less
//     callee that has a *Context sibling (Load vs LoadContext): the
//     sibling exists precisely so the ctx can thread through.
//
// Calls whose first parameter already is a context.Context need no
// check beyond rule 1 — the compiler forces an argument, and the only
// wrong argument is a fresh Background/TODO, which rule 1 catches.
// Function literals inherit the enclosing ctx scope unless they
// declare a context parameter of their own.
package ctxflow

import (
	"go/ast"
	"go/types"

	"ncqvet/internal/analysis"
	"ncqvet/internal/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag severed context chains: Background/TODO outside main, and ctx-dropping calls with a *Context sibling",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					checkBody(pass, d.Body, ctxParam(pass.TypesInfo, d.Type), isMain)
				}
			case *ast.GenDecl:
				// Package-level var initializers may hold literals.
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkBody(pass, lit.Body, ctxParam(pass.TypesInfo, lit.Type), isMain)
						return false
					}
					return true
				})
			}
		}
	}
	return nil
}

// ctxParam returns the function type's context.Context parameter
// object, or nil.
func ctxParam(info *types.Info, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && astq.IsNamed(obj.Type(), "context", "Context") {
				return obj
			}
		}
	}
	return nil
}

// checkBody inspects one function body; nested literals recurse with
// their own ctx parameter if they declare one, otherwise with the
// inherited (captured) scope.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, ctxObj types.Object, isMain bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scope := ctxObj
			if own := ctxParam(pass.TypesInfo, lit.Type); own != nil {
				scope = own
			}
			checkBody(pass, lit.Body, scope, isMain)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := astq.Callee(pass.TypesInfo, call)
		if f == nil {
			return true
		}
		if isBackgroundOrTODO(f) {
			if !isMain {
				pass.Reportf(call.Pos(), "context.%s() outside func main severs the cancellation chain; thread a ctx through (or annotate with //lint:ncqvet-ignore and a reason)", f.Name())
			}
			return true
		}
		if ctxObj != nil {
			checkContextSibling(pass, call, f)
		}
		return true
	})
}

func isBackgroundOrTODO(f *types.Func) bool {
	return f.Pkg() != nil && f.Pkg().Path() == "context" &&
		(f.Name() == "Background" || f.Name() == "TODO")
}

// checkContextSibling flags a call to F when F takes no context but a
// sibling FContext — same package scope, or same receiver's method
// set — does.
func checkContextSibling(pass *analysis.Pass, call *ast.CallExpr, f *types.Func) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || astq.FirstParamIsContext(sig) {
		return
	}
	sibName := f.Name() + "Context"
	var sib types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, f.Pkg(), sibName)
		sib = obj
	} else if f.Pkg() != nil {
		sib = f.Pkg().Scope().Lookup(sibName)
	}
	sf, ok := sib.(*types.Func)
	if !ok {
		return
	}
	ssig, ok := sf.Type().(*types.Signature)
	if !ok || !astq.FirstParamIsContext(ssig) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s drops the ctx in scope; use %s", f.Name(), sibName)
}
