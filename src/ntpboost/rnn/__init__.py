"""Circuit framework: expressions and their gadget library, graphs, engine."""
