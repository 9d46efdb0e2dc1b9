package mat

import (
	"cmp"
	"slices"
)

// Ordering selects the fill-reducing node ordering used by AnalyzeLDL.
// Orderings only read the sparsity pattern, which must be structurally
// symmetric (every stored (i,j) has a stored (j,i) — the RC-network
// Laplacians this package factors always are).
type Ordering int

const (
	// OrderAuto picks nested dissection for systems large enough for its
	// asymptotics to pay off, and RCM below that.
	OrderAuto Ordering = iota
	// OrderNatural keeps the assembly order (reference/testing).
	OrderNatural
	// OrderRCM is reverse Cuthill-McKee: a bandwidth-reducing BFS
	// ordering, close to optimal on the thin banded grids of coarse
	// thermal models.
	OrderRCM
	// OrderND is nested dissection via BFS level-set bisection (the
	// George–Liu automatic dissection): separators are middle BFS levels,
	// halves are ordered recursively, separators last. On the
	// paper-resolution quasi-planar grids it beats RCM's dense band by a
	// wide fill margin.
	OrderND
)

// ndThreshold is the node count at which OrderAuto switches from RCM to
// nested dissection. Measured on the thermal stacks, ND's lower fill
// already beats RCM's dense band by n ≈ 2000 (the coarse 23×20×5 grid),
// in both factorization and sweep time; below a few hundred nodes the
// two are equivalent and RCM's simpler analysis wins.
const ndThreshold = 512

// ndLeaf bounds the subgraph size that nested dissection stops splitting
// and orders with RCM.
const ndLeaf = 96

// Permutation computes the elimination order of o for the symmetric
// sparsity pattern of a: perm[k] is the original index of the node
// eliminated k-th.
func (o Ordering) Permutation(a *CSR) []int {
	n := a.N
	switch o {
	case OrderNatural:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	case OrderRCM:
		return newOrderer(a).rcm()
	case OrderND:
		return newOrderer(a).nd()
	default: // OrderAuto
		if n >= ndThreshold {
			return newOrderer(a).nd()
		}
		return newOrderer(a).rcm()
	}
}

// orderer carries the shared BFS scratch of the ordering algorithms.
type orderer struct {
	a   *CSR
	deg []int // off-diagonal degree (tie-breaking; full-graph degrees)
	// mark[v] == epoch marks v as a member of the subgraph under
	// consideration; vis[v] == vepoch marks v as reached by the current
	// BFS.
	mark, vis     []int
	epoch, vepoch int
}

func newOrderer(a *CSR) *orderer {
	o := &orderer{
		a:    a,
		deg:  make([]int, a.N),
		mark: make([]int, a.N),
		vis:  make([]int, a.N),
	}
	for r := 0; r < a.N; r++ {
		d := 0
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if a.Col[k] != r {
				d++
			}
		}
		o.deg[r] = d
	}
	return o
}

// markSubset makes nodes the current subgraph.
func (o *orderer) markSubset(nodes []int) {
	o.epoch++
	for _, v := range nodes {
		o.mark[v] = o.epoch
	}
}

// bfs runs a breadth-first search from start over the current subgraph,
// visiting the neighbors of each node in ascending-degree order (the
// Cuthill-McKee tie-break). It returns the visited nodes in BFS order and
// the level boundaries: level l is order[lptr[l]:lptr[l+1]].
func (o *orderer) bfs(start int) (order []int, lptr []int) {
	a := o.a
	o.vepoch++
	ve := o.vepoch
	order = append(order, start)
	o.vis[start] = ve
	lptr = append(lptr, 0)
	head := 0
	for head < len(order) {
		levelEnd := len(order)
		lptr = append(lptr, levelEnd)
		for ; head < levelEnd; head++ {
			v := order[head]
			frontier := len(order)
			for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
				w := a.Col[k]
				if w == v || o.mark[w] != o.epoch || o.vis[w] == ve {
					continue
				}
				o.vis[w] = ve
				order = append(order, w)
			}
			// (degree, index) is a total order on distinct nodes, so the
			// unstable sort has no ties to break.
			slices.SortFunc(order[frontier:], func(x, y int) int {
				if c := cmp.Compare(o.deg[x], o.deg[y]); c != 0 {
					return c
				}
				return cmp.Compare(x, y)
			})
		}
	}
	// Invariant: the loop exits only after a round that added no nodes,
	// so lptr's last entry already equals len(order) — level l is always
	// order[lptr[l]:lptr[l+1]].
	return order, lptr
}

// pseudoPeripheral finds a pseudo-peripheral node of the component of the
// current subgraph containing seed (George-Liu): repeatedly re-root the
// BFS at a minimum-degree node of the deepest level until the eccentricity
// stops growing. It returns the final BFS level structure.
func (o *orderer) pseudoPeripheral(seed int) (order []int, lptr []int) {
	order, lptr = o.bfs(seed)
	for iter := 0; iter < 8; iter++ {
		if len(lptr) < 3 {
			return order, lptr
		}
		last := order[lptr[len(lptr)-2]:]
		best := last[0]
		for _, v := range last[1:] {
			if o.deg[v] < o.deg[best] || (o.deg[v] == o.deg[best] && v < best) {
				best = v
			}
		}
		order2, lptr2 := o.bfs(best)
		if len(lptr2) <= len(lptr) {
			return order, lptr
		}
		order, lptr = order2, lptr2
	}
	return order, lptr
}

// appendRCM appends the reverse Cuthill-McKee order of the given node set
// (every component) to perm.
func (o *orderer) appendRCM(nodes []int, perm *[]int) {
	for len(nodes) > 0 {
		o.markSubset(nodes)
		order, _ := o.pseudoPeripheral(nodes[0])
		base := len(*perm)
		*perm = append(*perm, order...)
		// Reverse the component's Cuthill-McKee order in place.
		seg := (*perm)[base:]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		if len(order) == len(nodes) {
			return
		}
		nodes = o.remainder(nodes)
	}
}

// remainder returns the members of nodes not reached by the latest BFS.
func (o *orderer) remainder(nodes []int) []int {
	rest := make([]int, 0, len(nodes))
	for _, v := range nodes {
		if o.vis[v] != o.vepoch {
			rest = append(rest, v)
		}
	}
	return rest
}

func (o *orderer) rcm() []int {
	all := make([]int, o.a.N)
	for i := range all {
		all[i] = i
	}
	perm := make([]int, 0, o.a.N)
	o.appendRCM(all, &perm)
	return perm
}

func (o *orderer) nd() []int {
	all := make([]int, o.a.N)
	for i := range all {
		all[i] = i
	}
	perm := make([]int, 0, o.a.N)
	o.dissect(all, &perm)
	return perm
}

// dissect orders a node set by recursive level-set bisection.
func (o *orderer) dissect(nodes []int, perm *[]int) {
	for len(nodes) > 0 {
		if len(nodes) <= ndLeaf {
			o.appendRCM(nodes, perm)
			return
		}
		o.markSubset(nodes)
		order, lptr := o.pseudoPeripheral(nodes[0])
		var rest []int
		if len(order) < len(nodes) {
			// Disconnected subgraph: split off this component, keep
			// looping on the rest (computed now, before recursive calls
			// overwrite the visit marks).
			rest = o.remainder(nodes)
		}
		o.dissectComponent(order, lptr, perm)
		if rest == nil {
			return
		}
		nodes = rest
	}
}

// dissectComponent splits one connected component, given its BFS level
// structure: the separator is the smallest level whose cumulative position
// lies in the middle band, halves recurse, separator nodes come last.
func (o *orderer) dissectComponent(order []int, lptr []int, perm *[]int) {
	nlev := len(lptr) - 1
	n := len(order)
	if nlev < 3 || n <= ndLeaf {
		o.appendRCM(order, perm)
		return
	}
	lo, hi := n/4, (3*n)/4
	sep := -1
	for l := 1; l <= nlev-2; l++ {
		if lptr[l] < lo || lptr[l] > hi {
			continue
		}
		if sep < 0 || lptr[l+1]-lptr[l] < lptr[sep+1]-lptr[sep] {
			sep = l
		}
	}
	if sep < 0 {
		// No level starts inside the middle band (one huge level):
		// take the level containing the median node.
		for l := 1; l <= nlev-2; l++ {
			if lptr[l+1] > n/2 {
				sep = l
				break
			}
		}
	}
	if sep < 0 {
		o.appendRCM(order, perm)
		return
	}
	lower := order[:lptr[sep]]
	separator := order[lptr[sep]:lptr[sep+1]]
	upper := order[lptr[sep+1]:]
	o.dissect(lower, perm)
	o.dissect(upper, perm)
	*perm = append(*perm, separator...)
}
