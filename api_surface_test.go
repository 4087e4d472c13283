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
