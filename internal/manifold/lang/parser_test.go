package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse("test.m", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func readTestdata(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseAtomicManifold(t *testing.T) {
	p := mustParse(t, "manifold Worker(event) atomic.")
	if len(p.Decls) != 1 {
		t.Fatalf("%d decls", len(p.Decls))
	}
	d := p.Decls[0]
	if d.Name != "Worker" || !d.Atomic || d.Kind != DeclManifold {
		t.Fatalf("decl = %+v", d)
	}
	if len(d.Params) != 1 || d.Params[0].Kind != ParamEvent {
		t.Fatalf("params = %+v", d.Params)
	}
}

func TestParseAtomicWithInternalEvents(t *testing.T) {
	p := mustParse(t, `manifold Master(port in p)
		port in dataport.
		atomic {internal. event create_pool, finished}.`)
	d := p.Decls[0]
	if !d.Atomic {
		t.Fatal("not atomic")
	}
	if len(d.Ports) != 1 || d.Ports[0].Name != "dataport" || !d.Ports[0].In {
		t.Fatalf("ports = %+v", d.Ports)
	}
	if len(d.Internal) != 2 || d.Internal[0] != "create_pool" {
		t.Fatalf("internal = %v", d.Internal)
	}
}

func TestParseMannerWithPortSignature(t *testing.T) {
	p := mustParse(t, `manner M(process master <input, dataport / output, error>, manifold W(event)) {
		begin: halt.
	}`)
	d := p.Decls[0]
	if d.Kind != DeclManner {
		t.Fatal("not a manner")
	}
	prm := d.Params[0]
	if prm.Kind != ParamProcess || prm.Name != "master" {
		t.Fatalf("param = %+v", prm)
	}
	if len(prm.InPorts) != 2 || prm.InPorts[1] != "dataport" {
		t.Fatalf("in ports = %v", prm.InPorts)
	}
	if len(prm.OutPorts) != 2 || prm.OutPorts[0] != "output" {
		t.Fatalf("out ports = %v", prm.OutPorts)
	}
	if d.Params[1].Kind != ParamManifold || len(d.Params[1].SubTypes) != 1 {
		t.Fatalf("manifold param = %+v", d.Params[1])
	}
}

func TestParseBlockDecls(t *testing.T) {
	p := mustParse(t, `manner M() {
		save *.
		ignore death_worker.
		auto process now is variable(0).
		event death_worker.
		priority a > b.
		begin: halt.
		a: halt.
		b: halt.
	}`)
	b := p.Decls[0].Body
	if len(b.Decls) != 5 {
		t.Fatalf("%d decls", len(b.Decls))
	}
	if b.Decls[0].Kind != BDSave || b.Decls[0].Names[0] != "*" {
		t.Fatalf("save decl = %+v", b.Decls[0])
	}
	pd := b.Decls[2]
	if pd.Kind != BDProcess || !pd.Auto || pd.ProcName != "now" || pd.TypeName != "variable" {
		t.Fatalf("process decl = %+v", pd)
	}
	if n, ok := pd.Args[0].(*Num); !ok || n.Value != 0 {
		t.Fatalf("process args = %+v", pd.Args)
	}
	if b.Decls[4].Kind != BDPriority || b.Decls[4].Names[0] != "a" || b.Decls[4].Names[1] != "b" {
		t.Fatalf("priority decl = %+v", b.Decls[4])
	}
}

func TestParseStreamTypeDecl(t *testing.T) {
	p := mustParse(t, `manner M(process master <input / output>, manifold W(event)) {
		process worker is W(e).
		stream KK worker -> master.dataport.
		begin: halt.
	}`)
	b := p.Decls[0].Body
	sd := b.Decls[1]
	if sd.Kind != BDStreamType || !sd.StreamKK {
		t.Fatalf("stream decl = %+v", sd)
	}
	terms := sd.Stream.Terms
	if terms[0].Name != "worker" || terms[1].Name != "master" || terms[1].Port != "dataport" {
		t.Fatalf("terms = %+v", terms)
	}
}

func TestParseStateWithGroup(t *testing.T) {
	p := mustParse(t, `manifold M() {
		begin: (MES("begin"), preemptall, terminated(void)).
	}`)
	st := p.Decls[0].Body.States[0]
	g, ok := st.Body.(*Group)
	if !ok {
		t.Fatalf("body is %T", st.Body)
	}
	if len(g.Actions) != 3 {
		t.Fatalf("%d actions", len(g.Actions))
	}
	if c, ok := g.Actions[2].(*Call); !ok || c.Name != "terminated" {
		t.Fatalf("last action = %+v", g.Actions[2])
	}
}

func TestParseSeqAndIf(t *testing.T) {
	p := mustParse(t, `manifold M() {
		begin: t = t + 1;
			if (t < now) then (
				post(begin)
			) else (
				post(end)
			).
	}`)
	st := p.Decls[0].Body.States[0]
	seq, ok := st.Body.(*Seq)
	if !ok {
		t.Fatalf("body is %T", st.Body)
	}
	if len(seq.Stmts) != 2 {
		t.Fatalf("%d stmts", len(seq.Stmts))
	}
	ifs, ok := seq.Stmts[1].(*If)
	if !ok {
		t.Fatalf("second stmt is %T", seq.Stmts[1])
	}
	if ifs.Else == nil {
		t.Fatal("missing else branch")
	}
	b, ok := ifs.Cond.(*Binary)
	if !ok || b.Op != "<" {
		t.Fatalf("cond = %+v", ifs.Cond)
	}
}

func TestParseStreamChainWithRef(t *testing.T) {
	p := mustParse(t, `manifold M() {
		begin: (&worker -> master -> worker -> master.dataport, terminated(void)).
	}`)
	g := p.Decls[0].Body.States[0].Body.(*Group)
	se, ok := g.Actions[0].(*StreamExpr)
	if !ok {
		t.Fatalf("first action is %T", g.Actions[0])
	}
	if len(se.Terms) != 4 {
		t.Fatalf("%d terms", len(se.Terms))
	}
	if !se.Terms[0].Ref || se.Terms[0].Name != "worker" {
		t.Fatalf("first term = %+v", se.Terms[0])
	}
	if se.Terms[3].Port != "dataport" {
		t.Fatalf("last term = %+v", se.Terms[3])
	}
}

func TestParseNestedBlockState(t *testing.T) {
	p := mustParse(t, `manner M() {
		begin: halt.
		create_worker: {
			process w is W(e).
			begin: terminated(void).
		}.
	}`)
	st := p.Decls[0].Body.States[1]
	blk, ok := st.Body.(*Block)
	if !ok {
		t.Fatalf("body is %T", st.Body)
	}
	if len(blk.Decls) != 1 || len(blk.States) != 1 {
		t.Fatalf("inner block: %d decls, %d states", len(blk.Decls), len(blk.States))
	}
}

func TestParseMannerCallWithInstantiation(t *testing.T) {
	p := mustParse(t, `manifold Main(process argv) {
		begin: ProtocolMW(Master(argv), Worker).
	}`)
	seq := p.Decls[0].Body.States[0].Body.(*Seq)
	c := seq.Stmts[0].(*Call)
	if c.Name != "ProtocolMW" || len(c.Args) != 2 {
		t.Fatalf("call = %+v", c)
	}
	if ce, ok := c.Args[0].(*CallExpr); !ok || ce.Name != "Master" {
		t.Fatalf("arg 0 = %+v", c.Args[0])
	}
	if n, ok := c.Args[1].(*Name); !ok || n.Name != "Worker" {
		t.Fatalf("arg 1 = %+v", c.Args[1])
	}
}

func TestParseGlobalEventDecl(t *testing.T) {
	p := mustParse(t, "event create_pool, finished.")
	d := p.Decls[0]
	if d.Kind != DeclEvent || len(d.Events) != 2 {
		t.Fatalf("decl = %+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"manifold",                       // missing name
		"manner M( {",                    // bad params
		"manifold M() { }",               // fine? no states -> allowed by parser; checker flags
		"manifold M() { begin halt. }",   // missing colon
		"manifold M() { begin: a -> . }", // bad stream
	} {
		_, err := Parse("t.m", src)
		if src == "manifold M() { }" {
			if err != nil {
				t.Errorf("empty block should parse (checker rejects): %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParsePaperProtocolFile(t *testing.T) {
	src := readTestdata(t, "protocolMW.m")
	p := mustParse(t, src)
	names := map[string]*TopDecl{}
	for _, d := range p.Decls {
		if d.Name != "" {
			names[d.Name] = d
		}
	}
	cwp, ok := names["Create_Worker_Pool"]
	if !ok {
		t.Fatal("Create_Worker_Pool missing")
	}
	if len(cwp.Body.States) != 4 { // begin, create_worker, rendezvous, end
		t.Fatalf("Create_Worker_Pool has %d states", len(cwp.Body.States))
	}
	pmw, ok := names["ProtocolMW"]
	if !ok || !pmw.Export {
		t.Fatal("ProtocolMW missing or not exported")
	}
	if len(pmw.Body.States) != 3 { // begin, create_pool, finished
		t.Fatalf("ProtocolMW has %d states", len(pmw.Body.States))
	}
}

func TestParsePaperMainFile(t *testing.T) {
	src := readTestdata(t, "mainprog.m")
	p := mustParse(t, src)
	if len(p.Directives) == 0 || !strings.Contains(p.Directives[0].Text, "protocolMW.h") {
		t.Fatalf("directives = %+v", p.Directives)
	}
	var main *TopDecl
	for _, d := range p.Decls {
		if d.Name == "Main" {
			main = d
		}
	}
	if main == nil || main.Body == nil {
		t.Fatal("Main missing")
	}
}

func TestDeclString(t *testing.T) {
	p := mustParse(t, "manifold Worker(event) atomic.")
	s := p.Decls[0].String()
	if !strings.Contains(s, "manifold Worker(event) atomic") {
		t.Fatalf("String() = %q", s)
	}
}

// FuzzParse: whatever the source, Lex and Parse return without panicking,
// a lexing error is Parse's error too, a lexed stream ends in its one EOF
// token, and Check answers a parsed program, with or without errors,
// without panicking.
func FuzzParse(f *testing.F) {
	f.Add(readTestdata(f, "mainprog.m"))
	f.Add(readTestdata(f, "protocolMW.m"))
	f.Fuzz(func(t *testing.T, src string) {
		toks, lexErr := Lex("fuzz.m", src)
		prog, err := Parse("fuzz.m", src)
		if lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Lex fails with %v, Parse with %v", lexErr, err)
			}
			return
		}
		for i, tok := range toks {
			if (tok.Kind == EOF) != (i == len(toks)-1) {
				t.Fatalf("token %d of %d is %v", i, len(toks), tok)
			}
		}
		if err == nil {
			_, _ = Check(prog)
		}
	})
}
