package taxonomy

import "strings"

// Node is one node of the taxonomy tree (the paper's Figure 4).
type Node struct {
	// Label is the node's caption.
	Label string
	// Children are the sub-properties or values under this node.
	Children []Node
}

// Tree returns the taxonomy of classification properties exactly as drawn
// in Figure 4 of the paper.
func Tree() Node {
	return Node{Label: "Storage Engine", Children: []Node{
		{Label: "Layout Handling", Children: []Node{
			{Label: "Single Layout"},
			{Label: "Multi Layout", Children: []Node{
				{Label: "Built-In"},
				{Label: "Emulated"},
			}},
		}},
		{Label: "Layout Flexibility", Children: []Node{
			{Label: "Inflexible"},
			{Label: "Flexible", Children: []Node{
				{Label: "Weak"},
				{Label: "Strong", Children: []Node{
					{Label: "Constrained"},
					{Label: "Unconstrained"},
				}},
			}},
		}},
		{Label: "Layout Adaptability", Children: []Node{
			{Label: "Static"},
			{Label: "Responsive"},
		}},
		{Label: "Data Location", Children: []Node{
			{Label: "Target", Children: []Node{
				{Label: "Host-Memory-Only"},
				{Label: "Device-Memory-Only"},
				{Label: "Mixed"},
			}},
			{Label: "Locality", Children: []Node{
				{Label: "Centralized"},
				{Label: "Distributed"},
			}},
		}},
		{Label: "Fragment Linearization", Children: []Node{
			{Label: "Fat Fragments", Children: []Node{
				{Label: "NSM-Fixed"},
				{Label: "DSM-Fixed"},
				{Label: "Variable"},
			}},
			{Label: "Thin Fragments", Children: []Node{
				{Label: "Direct Linearization"},
				{Label: "Emulated", Children: []Node{
					{Label: "NSM"},
					{Label: "DSM"},
					{Label: "Variable", Children: []Node{
						{Label: "DSM-Fixed Partially NSM-Emulated"},
						{Label: "NSM-Fixed Partially DSM-Emulated"},
					}},
				}},
			}},
		}},
		{Label: "Fragment Scheme", Children: []Node{
			{Label: "Replication-Based"},
			{Label: "Delegation-Based"},
		}},
	}}
}

// Render draws the tree with box-drawing characters.
func (n Node) Render() string {
	var b strings.Builder
	b.WriteString(n.Label)
	b.WriteByte('\n')
	renderChildren(&b, n.Children, "")
	return b.String()
}

func renderChildren(b *strings.Builder, children []Node, prefix string) {
	for i, c := range children {
		last := i == len(children)-1
		if last {
			b.WriteString(prefix + "└─ " + c.Label + "\n")
			renderChildren(b, c.Children, prefix+"   ")
		} else {
			b.WriteString(prefix + "├─ " + c.Label + "\n")
			renderChildren(b, c.Children, prefix+"│  ")
		}
	}
}
