package sched

import (
	"math"

	"hare/internal/core"
)

// classifyGPUs groups the GPUs whose Train columns are equal for every
// job — the instance's GPU types, recovered from the data because
// core.Instance carries none (Gavel's per-accelerator-type view).
// Classes are ordered by their smallest member and list members in
// ascending GPU order. Columns are bucketed by a hash and then
// compared bit for bit, so two GPUs share a class only when every
// job's training time on them is the identical float.
func classifyGPUs(in *core.Instance) [][]int {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hash := make([]uint64, in.NumGPUs)
	for m := range hash {
		hash[m] = fnvOffset
	}
	for _, row := range in.Train {
		for m, v := range row {
			hash[m] = (hash[m] ^ math.Float64bits(v)) * fnvPrime
		}
	}
	var classes [][]int
	byHash := make(map[uint64][]int) // hash -> indices into classes
	for m, h := range hash {
		c := -1
		for _, cand := range byHash[h] {
			if sameColumn(in.Train, classes[cand][0], m) {
				c = cand
				break
			}
		}
		if c < 0 {
			c = len(classes)
			classes = append(classes, nil)
			byHash[h] = append(byHash[h], c)
		}
		classes[c] = append(classes[c], m)
	}
	return classes
}

func sameColumn(train [][]float64, a, b int) bool {
	for _, row := range train {
		if math.Float64bits(row[a]) != math.Float64bits(row[b]) {
			return false
		}
	}
	return true
}

// oneClass puts all n GPUs in a single class.
func oneClass(n int) [][]int {
	all := make([]int, n)
	for m := range all {
		all[m] = m
	}
	return [][]int{all}
}

// gpuPicker answers Algorithm 1's line 12 — argmin over GPUs of the
// finish time max(t_i, φ_m) + T_m, smallest GPU index on ties — in
// O(K log M) for K classes instead of an O(M) scan. Within a class
// T_m is one value, so the finish time is monotone in φ_m: the class
// minimum comes from its smallest φ, and the smallest index reaching
// it is the leftmost member whose φ is not past a threshold, which a
// min segment tree over the class's φ finds by descent.
type gpuPicker struct {
	phi     []float64 // φ_m, the time GPU m becomes free
	classes [][]int
	of, pos []int     // GPU -> class, and position within it
	trees   []minTree // per class, over φ of its members in order
	finish  []float64 // scratch: per-class minimum finish time
}

// newGPUPicker indexes a copy of phi by the given classes, which must
// partition the GPUs with members in ascending order.
func newGPUPicker(classes [][]int, phi []float64) *gpuPicker {
	p := &gpuPicker{
		phi:     append([]float64(nil), phi...),
		classes: classes,
		of:      make([]int, len(phi)),
		pos:     make([]int, len(phi)),
		trees:   make([]minTree, len(classes)),
		finish:  make([]float64, len(classes)),
	}
	for c, members := range classes {
		p.trees[c] = newMinTree(len(members))
		for i, m := range members {
			p.of[m], p.pos[m] = c, i
			p.trees[c].node[p.trees[c].size+i] = p.phi[m]
		}
		p.trees[c].build()
	}
	return p
}

// set records that GPU m becomes free at v.
func (p *gpuPicker) set(m int, v float64) {
	p.phi[m] = v
	p.trees[p.of[m]].update(p.pos[m], v)
}

// pick returns the GPU minimizing max(ti, φ_m) + row[m], the smallest
// index among equal finishes. A nil row means zero training time, so
// pick(-Inf, nil) is argmin_m φ_m.
func (p *gpuPicker) pick(ti float64, row []float64) int {
	best := math.Inf(1)
	for c, members := range p.classes {
		var tc float64
		if row != nil {
			tc = row[members[0]]
		}
		p.finish[c] = math.Max(ti, p.trees[c].node[1]) + tc
		if p.finish[c] < best {
			best = p.finish[c]
		}
	}
	m := -1
	for c, members := range p.classes {
		//lint:allow floateq classes tied at the minimum finish compete on GPU index, as in a first-index-wins scan
		if p.finish[c] != best {
			continue
		}
		var tc float64
		if row != nil {
			tc = row[members[0]]
		}
		if cand := members[p.trees[c].leftmost(ti, tc, best)]; m < 0 || cand < m {
			m = cand
		}
	}
	return m
}

// minTree is an implicit binary min segment tree: node[1] is the
// root, leaves sit at node[size:size+n], padding leaves are +Inf.
type minTree struct {
	size int
	node []float64
}

func newMinTree(n int) minTree {
	size := 1
	for size < n {
		size *= 2
	}
	t := minTree{size: size, node: make([]float64, 2*size)}
	for i := size + n; i < 2*size; i++ {
		t.node[i] = math.Inf(1)
	}
	return t
}

func (t *minTree) build() {
	for i := t.size - 1; i >= 1; i-- {
		t.node[i] = min(t.node[2*i], t.node[2*i+1])
	}
}

func (t *minTree) update(i int, v float64) {
	i += t.size
	t.node[i] = v
	for i /= 2; i >= 1; i /= 2 {
		t.node[i] = min(t.node[2*i], t.node[2*i+1])
	}
}

// leftmost returns the first leaf whose finish max(ti, φ) + tc is at
// most f. Finish is monotone in φ, so a subtree holds such a leaf
// exactly when its minimum does; f must be reached by the root.
func (t *minTree) leftmost(ti, tc, f float64) int {
	i := 1
	for i < t.size {
		i *= 2
		if math.Max(ti, t.node[i])+tc > f {
			i++
		}
	}
	return i - t.size
}
