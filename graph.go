package anoncover

import (
	"io"

	"anoncover/internal/graph"
)

// Graph is a simple undirected node-weighted graph with a port numbering,
// the input of VertexCover and VertexCoverBroadcast.
type Graph struct {
	g *graph.G
}

// GraphBuilder accumulates nodes and edges before Build.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraph returns a builder for a graph on n nodes (weights default 1).
func NewGraph(n int) *GraphBuilder { return &GraphBuilder{b: graph.NewBuilder(n)} }

// AddEdge adds the undirected edge {u, v}; self-loops and duplicates are
// rejected.  Ports are numbered in insertion order.
func (b *GraphBuilder) AddEdge(u, v int) *GraphBuilder {
	b.b.AddEdge(u, v)
	return b
}

// SetWeight sets node v's positive weight.
func (b *GraphBuilder) SetWeight(v int, w int64) *GraphBuilder {
	b.b.SetWeight(v, w)
	return b
}

// Build finalizes the graph.
func (b *GraphBuilder) Build() *Graph { return &Graph{g: b.b.Build()} }

// WrapGraph adopts an already-built internal graph.  It exists for the
// serving layer, which parses every vertex-cover body into an internal
// graph (the form a distributed session compiles from) and compiles
// local solvers over the same topology and weights.  Outside this
// module the parameter type is unconstructible, so the function is
// inert.
func WrapGraph(g *graph.G) *Graph { return &Graph{g: g} }

// N returns the number of nodes.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// Deg returns the degree of node v.
func (g *Graph) Deg(v int) int { return g.g.Deg(v) }

// Weight returns the weight of node v.
func (g *Graph) Weight(v int) int64 { return g.g.Weight(v) }

// MaxDegree returns Δ.
func (g *Graph) MaxDegree() int { return g.g.MaxDegree() }

// MaxWeight returns W.
func (g *Graph) MaxWeight() int64 { return g.g.MaxWeight() }

// EdgeEndpoints returns the endpoints of edge e (in edge order, matching
// VertexCoverResult.Packing).
func (g *Graph) EdgeEndpoints(e int) (u, v int) { return g.g.Endpoints(e) }

// Fingerprint returns a canonical identifier of the graph's structure —
// node count, edge table and port numbering — excluding weights, so
// re-weighted copies of one topology share a fingerprint.  It is the
// cache key of the serving layer's solver cache: one compiled solver
// serves every weight assignment over the structure.
func (g *Graph) Fingerprint() string { return g.g.Fingerprint() }

// Weights returns a copy of the node weight vector.
func (g *Graph) Weights() []int64 { return g.g.Weights() }

// SetWeight replaces node v's positive weight on a built graph.  Weight
// mutations do not invalidate compiled Solvers: the next run absorbs
// them into a fresh weight snapshot over the same compiled topology.
func (g *Graph) SetWeight(v int, w int64) { g.g.SetWeight(v, w) }

// WeighUniform sets every node weight to w.  Like every weight-only
// mutation, it leaves compiled Solvers valid — their next run picks up
// the new weights as a snapshot, with no recompile.
func (g *Graph) WeighUniform(w int64) { graph.UniformWeights(g.g, w) }

// WeighRandom assigns uniform random weights in {1..maxW},
// deterministically in seed.  Compiled Solvers stay valid; see
// WeighUniform.
func (g *Graph) WeighRandom(maxW, seed int64) { graph.RandomWeights(g.g, maxW, seed) }

// ShufflePorts renumbers all ports at random (deterministic in seed);
// the algorithms' guarantees hold under any port numbering.  Port
// numbering is structure: this invalidates compiled Solvers (their
// runs return an error; recompile after mutating).
func (g *Graph) ShufflePorts(seed int64) { g.g.RandomPorts(seed) }

// Generators.

// CycleGraph returns the n-cycle (n >= 3).
func CycleGraph(n int) *Graph { return &Graph{g: graph.Cycle(n)} }

// PathGraph returns the path on n nodes.
func PathGraph(n int) *Graph { return &Graph{g: graph.Path(n)} }

// StarGraph returns a star: node 0 joined to n-1 leaves.
func StarGraph(n int) *Graph { return &Graph{g: graph.Star(n)} }

// CompleteGraph returns K_n.
func CompleteGraph(n int) *Graph { return &Graph{g: graph.Complete(n)} }

// GridGraph returns the r x c grid.
func GridGraph(r, c int) *Graph { return &Graph{g: graph.Grid(r, c)} }

// RandomGraph returns a random simple graph with n nodes, m edges and
// maximum degree maxDeg, deterministic in seed.
func RandomGraph(n, m, maxDeg int, seed int64) *Graph {
	return &Graph{g: graph.RandomBoundedDegree(n, m, maxDeg, seed)}
}

// RandomRegularGraph returns a random d-regular graph (n*d even, d < n).
func RandomRegularGraph(n, d int, seed int64) *Graph {
	return &Graph{g: graph.RandomRegular(n, d, seed)}
}

// RandomTreeGraph returns a random tree on n nodes.
func RandomTreeGraph(n int, seed int64) *Graph {
	return &Graph{g: graph.RandomTree(n, seed)}
}

// PowerLawGraph returns a preferential-attachment power-law graph: n
// nodes, each new node attaching m edges toward already-popular nodes.
// Hub degrees grow with n, so the O(Δ)-round schedules grow with them;
// use PowerLawBoundedGraph when Δ must stay a hardware constant.
func PowerLawGraph(n, m int, seed int64) *Graph {
	return &Graph{g: graph.PowerLaw(n, m, seed)}
}

// PowerLawBoundedGraph is PowerLawGraph with a hard degree cap: the
// heavy-tailed attachment is kept but no node exceeds maxDeg, the
// realistic shape for radio or port-limited deployments.
func PowerLawBoundedGraph(n, attach, maxDeg int, seed int64) *Graph {
	return &Graph{g: graph.PowerLawBounded(n, attach, maxDeg, seed)}
}

// FruchtGraph returns the Frucht graph: 3-regular with no non-trivial
// automorphism, used by the paper's Section 7 symmetry discussion.
func FruchtGraph() *Graph { return &Graph{g: graph.Frucht()} }

// LiftGraph returns a k-fold covering graph of g with port structure
// preserved along fibres; anonymous deterministic algorithms produce
// fibre-constant outputs on it (Section 7).
func LiftGraph(g *Graph, k int, seed int64) *Graph {
	return &Graph{g: graph.Lift(g.g, k, seed)}
}

// ReadGraph parses the text format produced by WriteGraph ("graph n",
// "node v w", "edge u v" lines).
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g.g) }
