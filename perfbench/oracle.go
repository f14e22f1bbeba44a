package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The oracles here never evaluate a circuit: matrix products are
// checked against a plain integer triple loop and triangle counts
// against a shadow adjacency bitset per tenant, so a rewrite of the
// evaluator cannot be checked against itself.

// matmulShape is the served matrix-product shape: Strassen, entries of
// two magnitude bits with a sign plane, so every entry is in [-3, 3].
func matmulShape(n int) core.Shape {
	return core.Shape{Op: core.OpMatMul, N: n, Alg: "strassen", EntryBits: 2, Signed: true}
}

// countShape is the count circuit tcserve builds for an n-vertex graph
// session (stream.Manager's default algorithm).
func countShape(n int) core.Shape {
	return core.Shape{Op: core.OpCount, N: n, Alg: "strassen"}
}

// matmulCase is one seeded (A, B) pair and its exact product.
type matmulCase struct {
	a, b, want *matrix.Matrix
}

func randomSigned(rng *rand.Rand, n int) *matrix.Matrix {
	m := matrix.New(n, n)
	for i := range m.Data {
		m.Data[i] = int64(rng.Intn(7)) - 3
	}
	return m
}

// exactProduct is the oracle: C = AB by the schoolbook triple loop.
func exactProduct(a, b *matrix.Matrix) *matrix.Matrix {
	n := a.Rows
	c := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.Data[i*n+k]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += aik * b.Data[k*n+j]
			}
		}
	}
	return c
}

func matmulCases(seed int64, n, count int) []matmulCase {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]matmulCase, count)
	for i := range cases {
		a, b := randomSigned(rng, n), randomSigned(rng, n)
		cases[i] = matmulCase{a: a, b: b, want: exactProduct(a, b)}
	}
	return cases
}

// checkProduct compares a decoded product with the oracle's.
func checkProduct(got, want *matrix.Matrix) error {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("%w: product has the wrong shape", errWrong)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			return fmt.Errorf("%w: C[%d][%d] = %d, exact product %d",
				errWrong, i/want.Cols, i%want.Cols, got.Data[i], v)
		}
	}
	return nil
}

// checkFrameReply decodes a /v1/eval reply into a product and checks
// it. The client-side circuit wrapper only maps output bits to entries
// (a weighted sum per entry); the circuit is evaluated by the server.
func checkFrameReply(mc *core.MatMulCircuit, body []byte, want *matrix.Matrix) error {
	bits, err := serve.DecodeFrameResponse(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	if len(bits) != len(mc.Circuit.Outputs()) {
		return fmt.Errorf("%w: %d output bits, want %d", errWrong, len(bits), len(mc.Circuit.Outputs()))
	}
	return checkProduct(mc.DecodeOutputs(bits), want)
}

// matmulJSON is the /v1/matmul request body for one case.
func matmulJSON(shape core.Shape, c matmulCase) ([]byte, error) {
	return json.Marshal(map[string]any{
		"n": shape.N, "alg": shape.Alg, "entry_bits": shape.EntryBits, "signed": shape.Signed,
		"a": rows(c.a), "b": rows(c.b),
	})
}

func rows(m *matrix.Matrix) [][]int64 {
	out := make([][]int64, m.Rows)
	for i := range out {
		out[i] = m.Data[i*m.Cols : (i+1)*m.Cols]
	}
	return out
}

// checkJSONReply parses a /v1/matmul reply and checks the product.
func checkJSONReply(body []byte, want *matrix.Matrix) error {
	var reply struct {
		C [][]int64 `json:"c"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	if len(reply.C) != want.Rows {
		return fmt.Errorf("%w: %d rows, want %d", errWrong, len(reply.C), want.Rows)
	}
	got := matrix.New(want.Rows, want.Cols)
	for i, r := range reply.C {
		if len(r) != want.Cols {
			return fmt.Errorf("%w: row %d has %d entries, want %d", errWrong, i, len(r), want.Cols)
		}
		copy(got.Data[i*want.Cols:], r)
	}
	return checkProduct(got, want)
}

// Graph sessions.

const (
	graphN        = 8  // vertices per tenant graph
	graphTenants  = 16 // sessions per run
	graphBatch    = 8  // edge ops per update
	graphScreenEv = 4  // every 4th update per tenant screens, with energy
)

// tenantNames derives the run's tenant names from the seed, so runs
// with different seeds never share a session name.
func tenantNames(seed int64) []string {
	tag := uint32(seed*2654435761) ^ 0x9e3779b9
	names := make([]string, graphTenants)
	for i := range names {
		names[i] = fmt.Sprintf("pb-%08x-%02d", tag, i)
	}
	return names
}

// graphReq is one /v1/graph request with the reply the oracle expects.
type graphReq struct {
	tenant int
	frame  []byte
	want   stream.GraphResponse // Energy is not predicted; see checkGraphReply
	adj    *matrix.Matrix       // the graph the reply screens, when screened
}

// tenantStream generates one tenant's requests and mirrors every
// update onto a shadow bitset: the triangle-count oracle.
type tenantStream struct {
	index   int
	name    string
	tau     int64
	rng     *rand.Rand
	shadow  *graph.Bitset
	updates int
}

func newTenantStreams(seed int64) []*tenantStream {
	names := tenantNames(seed)
	ts := make([]*tenantStream, len(names))
	for i, name := range names {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		ts[i] = &tenantStream{
			index: i, name: name, tau: int64(1 + rng.Intn(20)),
			rng: rng, shadow: graph.NewBitset(graphN),
		}
	}
	return ts
}

// create is the session-opening request; it also screens the empty
// graph, so its reply is a verified result.
func (t *tenantStream) create() (graphReq, error) {
	req := stream.GraphRequest{Op: stream.OpCreate, Tenant: t.name, N: graphN, Tau: t.tau, Screen: true, Energy: true}
	return t.finish(req)
}

// next draws the tenant's next edge update.
func (t *tenantStream) next() (graphReq, error) {
	ops := make([]stream.EdgeOp, 0, graphBatch)
	for len(ops) < graphBatch {
		u, v := t.rng.Intn(graphN), t.rng.Intn(graphN)
		if u == v {
			continue
		}
		op := stream.EdgeOp{U: u, V: v, Delete: t.rng.Intn(4) == 0}
		if _, err := t.shadow.Set(u, v, !op.Delete); err != nil {
			return graphReq{}, err
		}
		ops = append(ops, op)
	}
	t.updates++
	screen := t.updates%graphScreenEv == 0
	req := stream.GraphRequest{Op: stream.OpUpdate, Tenant: t.name, Ops: ops, Screen: screen, Energy: screen}
	return t.finish(req)
}

func (t *tenantStream) finish(req stream.GraphRequest) (graphReq, error) {
	frame, err := stream.EncodeGraphRequest(req)
	if err != nil {
		return graphReq{}, err
	}
	want := stream.GraphResponse{Version: uint64(t.updates), Edges: t.shadow.Edges()}
	g := graphReq{tenant: t.index, frame: frame}
	if req.Screen {
		want.Screened, want.HasEnergy = true, req.Energy
		want.Count = t.shadow.Triangles()
		want.Decision = want.Count >= t.tau
		g.adj = t.shadow.Matrix()
	}
	g.want = want
	return g, nil
}

// checkGraphReply compares a reply with the shadow's expectation.
// Energy depends on the circuit's internals, so it is only required to
// be present when asked for; its exact value is checked in the traced
// run, where two evaluation paths must agree on it.
func checkGraphReply(got, want stream.GraphResponse) error {
	if got.Energy < 0 {
		return fmt.Errorf("%w: negative energy %d", errWrong, got.Energy)
	}
	got.Energy = 0
	if got != want {
		return fmt.Errorf("%w: reply %+v, shadow expects %+v", errWrong, got, want)
	}
	return nil
}

// graphSequence is a fixed, seeded request sequence: every tenant's
// create, then updates round-robin over tenants.
func graphSequence(seed int64, updatesPerTenant int) ([]graphReq, error) {
	ts := newTenantStreams(seed)
	var seq []graphReq
	for _, t := range ts {
		r, err := t.create()
		if err != nil {
			return nil, err
		}
		seq = append(seq, r)
	}
	for u := 0; u < updatesPerTenant; u++ {
		for _, t := range ts {
			r, err := t.next()
			if err != nil {
				return nil, err
			}
			seq = append(seq, r)
		}
	}
	return seq, nil
}
