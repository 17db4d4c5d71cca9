"""Model configs that several test modules share."""

from resemotenet.model import ModelConfig

#: the FER2013-native net the benchmark's `train_fer48` trains (its
#: ``perfbench/workloads.py`` ``FER48``): 48x48 grayscale, an eighth of the
#: default width, 1.2 M parameters
FER48 = ModelConfig(input_channels=1, input_size=48, stem_channels=(8, 16, 32),
                    se_reduction=8,
                    residual_channels=((32, 64, 2), (64, 128, 2), (128, 256, 2)))
