package pag

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods of library
// packages that no non-test file calls, each with the reason it stays.
// Keys are "package.Func" or "package.Type.Method". Every other exported
// name needs a caller in a non-test file: cmd/, examples/ and bench/ count.
var testOnlyExports = map[string]string{
	// Oracles that tests hold the production path to.
	"hhash.Hasher.HashSet":                  "oracle: the generic fold the buffermap and attestation paths must match",
	"coalition.ClosedFormPAG":               "oracle: the closed form the coalition model's PAG sweep is checked against",
	"coalition.ClosedFormAcTinG":            "oracle: the closed form the coalition model's AcTinG sweep is checked against",
	"wire.PoisonReleased":                   "hook: ownership tests in other packages poison pooled buffers on release",
	"transport.MemNet.PendingCount":         "hook: core and sim tests read the undelivered queue across packages",
	"transport.FaultPlane.SetDropFunc":      "hook: core's resilience tests drop chosen messages across packages",
	"hhash.ParamsFromModulus":               "hook: hhash and update tests build Params on a chosen modulus",
	"judicial.Registry.CountsInWindow":      "hook: session tests attribute each accused node's verdicts to scenario phases",
	"update.Store.ReceivedIn":               "hook: core tests read what a node received in a round",
	"membership.Directory.QuarantinedUntil": "hook: session tests read an evicted node's quarantine",
	"stats.ChiSquareUniform":                "hook: membership and core tests check that assignments are uniform",
	"hhash.Key.Exponent":                    "hook: core tests rebuild a tag from a key's prime",
	"streaming.Player.Duplicates":           "hook: a fault-detection invariant the session tests assert",
	"pki.NewRSASuite":                       "open item: the RSA suite signatures will be priced on",
	"pki.Counter.Verifies":                  "open item: pricing signatures reads every pki counter",
	"pki.Counter.Encrypts":                  "open item: pricing signatures reads every pki counter",
	"pki.Counter.Decrypts":                  "open item: pricing signatures reads every pki counter",
	"securelog.Log.Owner":                   "open item: PeerReview-style authenticators for AcTinG name a log's owner",
	"securelog.Log.EntryAt":                 "open item: PeerReview-style audits fetch one entry by sequence number",
	"securelog.Log.Authenticate":            "open item: PeerReview-style authenticators for AcTinG",
	"securelog.VerifyAuthenticator":         "open item: PeerReview-style authenticators for AcTinG",
	"securelog.CheckFork":                   "open item: two authenticators that prove a forked log",
	"trace.CanonicalLines":                  "open item: comparing journals across deployments",
}

// TestNoUnexplainedTestOnlyExports fails on an exported function or method
// of a non-main package whose name no non-test file mentions outside its
// own declaration and that testOnlyExports does not explain, and on an
// entry of testOnlyExports that no longer names such a function. It
// matches bare names, so it misses a method no non-test file calls when
// another type's method of that name is called: an uncalled Len, say,
// passes because other types' Len methods are called.
func TestNoUnexplainedTestOnlyExports(t *testing.T) {
	type decl struct {
		key      string
		pos      token.Position
		from, to token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	mentions := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if f.Name.Name == "main" || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + receiverType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()), fd.Pos(), fd.End()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				mentions[id.Name] = append(mentions[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	testOnly := map[string]bool{}
	var unexplained []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		used := false
		for _, p := range mentions[name] {
			if p < d.from || p >= d.to {
				used = true
				break
			}
		}
		if used {
			continue
		}
		testOnly[d.key] = true
		if testOnlyExports[d.key] == "" {
			unexplained = append(unexplained, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unexplained)
	for _, u := range unexplained {
		t.Errorf("%s is exported but no non-test file calls it: delete it, give it a caller, or add it to testOnlyExports with the reason it stays", u)
	}
	for key := range testOnlyExports {
		if !testOnly[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer an exported function without a non-test caller", key)
		}
	}
}

// receiverType names a method's receiver type without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// testOnlySettings names the exported fields of the settings structs in
// settingsTypes that no non-test file writes, each with the reason it
// stays. Keys are "package.Type.Field".
var testOnlySettings = map[string]string{}

// settingsTypes are the structs a caller configures a session or a node
// through. The scenario types are not among them: the JSON decoder writes
// their fields from scenario files, which no syntactic search can see.
var settingsTypes = map[string]bool{
	"pag.SessionConfig": true,
	"core.Config":       true,
	"core.Shared":       true,
	"membership.Config": true,
}

// TestNoTestOnlySettings fails on an exported field of a settingsTypes
// struct that no non-test file writes and testOnlySettings does not
// explain, and on an entry of testOnlySettings that names no such field. A
// write is a key of a composite literal of the struct's type, or an
// assignment, increment or address-of of a selector naming the field.
// Copying the same-named field of another value (Seed: c.Seed) is not a
// write: it only forwards a setting someone else must write. Without type
// information the test matches names: an assignment to a same-named field
// of another type counts as a write, and so does a same-named selector
// wherever a method of that name exists (OnDeliver: player.OnDeliver is a
// method value). It can miss a test-only field, never flag a written one.
func TestNoTestOnlySettings(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string]token.Position{} // "package.Type.Field"
	written := map[string]bool{}          // "package.Type.Field", or ".Field" for a selector write
	copied := map[string]bool{}           // the same, where the value is a same-named selector
	methods := map[string]bool{}
	// write records a write of key, or a copy when v selects the field's
	// own name.
	write := func(key, field string, v ast.Expr) {
		if sel, ok := v.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
			copied[key] = true
		} else {
			written[key] = true
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					methods[n.Name.Name] = true
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !settingsTypes[pkg+"."+n.Name.Name] {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							fields[pkg+"."+n.Name.Name+"."+name.Name] = fset.Position(name.Pos())
						}
					}
				}
			case *ast.CompositeLit:
				var typ string
				switch x := n.Type.(type) {
				case *ast.Ident:
					typ = pkg + "." + x.Name
				case *ast.SelectorExpr:
					if p, ok := x.X.(*ast.Ident); ok {
						typ = p.Name + "." + x.Sel.Name
					}
				}
				if !settingsTypes[typ] {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							write(typ+"."+key.Name, key.Name, kv.Value)
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						var v ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							v = n.Rhs[i]
						}
						write("."+sel.Sel.Name, sel.Sel.Name, v)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					written["."+sel.Sel.Name] = true
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					written["."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isWritten := func(key string) bool {
		field := key[strings.LastIndexByte(key, '.'):]
		return written[key] || written[field] ||
			methods[field[1:]] && (copied[key] || copied[field])
	}
	var unexplained []string
	for key, pos := range fields {
		if isWritten(key) {
			continue
		}
		if testOnlySettings[key] == "" {
			unexplained = append(unexplained, key+" ("+pos.String()+")")
		}
	}
	sort.Strings(unexplained)
	for _, u := range unexplained {
		t.Errorf("%s is a setting no non-test file writes: delete it, give it a writer, or add it to testOnlySettings with the reason it stays", u)
	}
	for key := range testOnlySettings {
		if _, ok := fields[key]; !ok || isWritten(key) {
			t.Errorf("testOnlySettings lists %s, which is no longer a setting without a non-test writer", key)
		}
	}
}
