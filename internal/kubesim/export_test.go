package kubesim

// Held reports, for nodes, mapping entries, sequence items and Objects
// in turn, how many elements of its current chunk the cluster has taken
// and how many that chunk holds.
func Held(c *Cluster) (taken, capacity [4]int) {
	t, k := c.arena.Held()
	copy(taken[:], t[:])
	copy(capacity[:], k[:])
	taken[3], capacity[3] = c.objs.Held()
	return taken, capacity
}
