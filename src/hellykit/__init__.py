"""hellykit: Helly-type analysis of finite graphs, desk-scale free-product
group models, relative Cayley words, glued parabolic thickenings, and the
derived-word transformation, with seeded measurement harnesses.

The package root exports nothing, so `import hellykit` loads no module:
import each name from its module, `hellykit.<module>`."""

__version__ = "0.1.0"
