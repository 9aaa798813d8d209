package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The tuple-contract check.
//
// Every producer signature (an Out call with explicit arguments, or a
// tuplespace.Tuple composite literal, which exists to be passed to
// OutN or Restore) and every consumer template (In/Inp/Rd/Rdp with
// explicit arguments) in a package is collected, then the two sets
// are cross-referenced:
//
//   - a consumer template that no producer signature can ever match
//     is reported (tag never produced, or arity/field types that
//     cannot unify with any same-tag producer);
//   - a producer signature no consumer template can ever match is
//     reported symmetrically (tag never consumed, or unmatched shape).
//
// Tags are the leading constant-string field, the universal Linda
// convention in this repository. Call sites whose leading field is
// not a constant string still participate: a dynamic-tag producer
// (Out(name+"-trial", t)) can satisfy any consumer its arity and
// field types unify with, and a dynamic-tag or leading-formal-string
// consumer can satisfy any producer — but dynamic sites are never
// themselves reported, since their tags are unknowable statically.
// Forwarding calls (Out(fields...)) contribute nothing.
//
// The check is scoped per package: a "task" tuple in one program has
// no relation to a "task" tuple in another.

// sigField is one field of a collected signature. A nil typ is a
// wildcard: an interface-typed expression or a Formal of unknown
// type, which unifies with every field type.
type sigField struct {
	typ    types.Type
	formal bool
}

func (f sigField) unifies(g sigField) bool {
	if f.typ == nil || g.typ == nil {
		return true
	}
	return types.Identical(f.typ, g.typ)
}

// signature is one producer or consumer shape.
type signature struct {
	tag     string // leading constant-string field; "" when dynamic
	dynamic bool   // leading field is not a constant string
	fields  []sigField
	pos     token.Pos
	desc    string // "Out", "Tuple literal", "In", ...
}

func (s *signature) unifies(o *signature) bool {
	if len(s.fields) != len(o.fields) {
		return false
	}
	if !s.dynamic && !o.dynamic && s.tag != o.tag {
		return false
	}
	for i := range s.fields {
		if !s.fields[i].unifies(o.fields[i]) {
			return false
		}
	}
	return true
}

// render spells the signature the way the call site reads:
// ("result", string, ?float64) — ? marks formals, bare types are
// actuals, ?_ is a wildcard formal and _ an unknown actual.
func (s *signature) render() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		name := "_"
		if f.typ != nil {
			name = f.typ.String()
		}
		if i == 0 && !s.dynamic {
			parts[i] = fmt.Sprintf("%q", s.tag)
			continue
		}
		if f.formal {
			parts[i] = "?" + name
		} else {
			parts[i] = name
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// constString extracts a constant string value from an expression.
func (a *analysis) constString(expr ast.Expr) (string, bool) {
	tv, ok := a.pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// signatureOf builds the signature of a field list (call arguments or
// composite-literal elements).
func (a *analysis) signatureOf(args []ast.Expr, pos token.Pos, desc string) *signature {
	s := &signature{pos: pos, desc: desc, fields: make([]sigField, len(args))}
	for i, arg := range args {
		if t, ok := a.formalType(arg); ok {
			s.fields[i] = sigField{typ: t, formal: true}
			continue
		}
		s.fields[i] = sigField{typ: a.staticType(arg)}
	}
	if tag, ok := a.constString(args[0]); ok {
		s.tag = tag
	} else {
		s.dynamic = true
	}
	return s
}

// contractSigs collects the package's producer and consumer
// signatures.
func (a *analysis) contractSigs() (producers, consumers []*signature) {
	for _, op := range a.ops {
		args := op.templateArgs()
		if op.call.Ellipsis.IsValid() || len(args) == 0 {
			continue // forwarding or empty: unknowable
		}
		switch {
		case op.info.producer:
			producers = append(producers, a.signatureOf(args, op.call.Pos(), op.name))
		case op.info.consumer:
			consumers = append(consumers, a.signatureOf(args, op.call.Pos(), op.name))
		}
	}
	keyed := func(e ast.Expr) bool { _, ok := e.(*ast.KeyValueExpr); return ok }
	for _, lit := range a.lits {
		if len(lit.Elts) > 0 && !slices.ContainsFunc(lit.Elts, keyed) {
			producers = append(producers, a.signatureOf(lit.Elts, lit.Pos(), "Tuple literal"))
		}
	}
	return producers, consumers
}

func (a *analysis) checkContract() []Finding {
	producers, consumers := a.contractSigs()
	var fs []Finding
	report := func(s *signature, others []*signature, role, otherRole string) {
		if s.dynamic {
			return // unknowable tag: never reported, only matched against
		}
		for _, o := range others {
			if s.unifies(o) {
				return
			}
		}
		// Explain the nearest miss: a same-tag counterpart whose shape
		// cannot unify beats "tag never seen at all".
		var near *signature
		for _, o := range others {
			if !o.dynamic && o.tag == s.tag {
				near = o
				break
			}
		}
		msg := fmt.Sprintf("tag %q is %s by %s %s but never %s", s.tag, role, s.desc, s.render(), otherRole)
		if near != nil {
			msg = fmt.Sprintf("tag %q: %s %s cannot match %s %s at %s (%s)",
				s.tag, s.desc, s.render(), near.desc, near.render(),
				a.relPos(near.pos), mismatchReason(s, near))
		}
		fs = append(fs, Finding{Pos: a.fset.Position(s.pos), Check: CheckContract, Msg: msg})
	}
	for _, c := range consumers {
		report(c, producers, "consumed", "produced")
	}
	for _, p := range producers {
		report(p, consumers, "produced", "consumed")
	}
	return fs
}

func fieldName(f sigField) string {
	if f.typ == nil {
		return "unknown"
	}
	return f.typ.String()
}

// mismatchReason explains the first way two same-tag signatures fail
// to unify.
func mismatchReason(s, o *signature) string {
	if len(s.fields) != len(o.fields) {
		return fmt.Sprintf("arity %d vs %d", len(s.fields), len(o.fields))
	}
	for i := range s.fields {
		if !s.fields[i].unifies(o.fields[i]) {
			return fmt.Sprintf("field %d is %s vs %s", i, fieldName(s.fields[i]), fieldName(o.fields[i]))
		}
	}
	return "shapes do not unify"
}
