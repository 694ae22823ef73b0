package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// FactSet is the cross-package fact store of one run. Facts are
// keyed by (analyzer, object), the object by its qualified name
// (ObjectKey), so a fact exported while analyzing one package reaches
// every later package that uses the object, test variants included, each
// of which type-checks its own copy of the object. Only package-level
// functions, methods, variables and types can carry facts, which is all
// the vetsparse passes need.
type FactSet struct {
	m map[factKey]Fact
}

type factKey struct {
	analyzer string
	object   string
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[factKey]Fact)}
}

// ObjectKey returns the identity of a package-level object across
// type-checked copies of its package: the method's FullName for funcs
// ("pkg/path.(*T).M"), otherwise "pkg/path.Name". Objects without a
// package (builtins) have no key.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName(), true
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false // local object: facts not supported
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// bind returns the Pass hooks for one analyzer over this store. An
// exported fact is kept as given and must not be changed after export;
// an import copies it into the caller's value of the same type.
func (s *FactSet) bind(a *Analyzer) (imp func(types.Object, Fact) bool, exp func(types.Object, Fact)) {
	imp = func(obj types.Object, f Fact) bool {
		key, ok := ObjectKey(obj)
		if !ok {
			return false
		}
		stored, ok := s.m[factKey{a.Name, key}]
		if ok {
			reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
		}
		return ok
	}
	exp = func(obj types.Object, f Fact) {
		key, ok := ObjectKey(obj)
		if !ok {
			panic(fmt.Errorf("analysis: object %v cannot carry facts", obj))
		}
		s.m[factKey{a.Name, key}] = f
	}
	return imp, exp
}
