import pytest

from lanepost import LayerSpec, TensorShape, propagate_shapes, receptive_field


def encoder_stack():
    return [LayerSpec("conv", 3, 2, c) for c in (32, 64, 128, 256, 512)]


def decoder_stack():
    # (in-1)*2 + 3 lands one short whenever the target dimension is even,
    # hence the per-dimension output padding on layers 2 and 5
    paddings = [(0, 0), (1, 0), (0, 0), (0, 0), (1, 1)]
    channels = (256, 128, 64, 32, 2)
    return [
        LayerSpec("conv_transpose", 3, 2, c, output_padding=p)
        for c, p in zip(channels, paddings)
    ]


class TestPropagateShapes:
    def test_encoder_chain(self):
        shapes = propagate_shapes(encoder_stack(), TensorShape(360, 480, 3))
        assert shapes == [
            TensorShape(179, 239, 32),
            TensorShape(89, 119, 64),
            TensorShape(44, 59, 128),
            TensorShape(21, 29, 256),
            TensorShape(10, 14, 512),
        ]

    def test_decoder_chain(self):
        shapes = propagate_shapes(decoder_stack(), TensorShape(10, 14, 512))
        assert shapes == [
            TensorShape(21, 29, 256),
            TensorShape(44, 59, 128),
            TensorShape(89, 119, 64),
            TensorShape(179, 239, 32),
            TensorShape(360, 480, 2),
        ]

    def test_unit_conv_keeps_spatial_dims(self):
        shapes = propagate_shapes([LayerSpec("conv", 1, 1, 7)], TensorShape(33, 44, 3))
        assert shapes == [TensorShape(33, 44, 7)]

    def test_collapsed_dimension_rejected(self):
        with pytest.raises(ValueError):
            propagate_shapes([LayerSpec("conv", 5, 1, 8)], TensorShape(4, 10, 3))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            propagate_shapes([], TensorShape(10, 10, 1))

    @pytest.mark.parametrize("shape", [TensorShape(0, 10, 3), TensorShape(10, 0, 3), (-1, 4, 1)])
    def test_empty_input_rejected(self, shape):
        # a transposed layer would grow a 0-row input to 1 row unchecked
        layer = LayerSpec("conv_transpose", 3, 2, 8)
        with pytest.raises(ValueError, match="input shape must be at least 1x1"):
            propagate_shapes([layer], shape)


class TestReceptiveField:
    def test_encoder_is_63(self):
        assert receptive_field(encoder_stack()) == 63

    def test_single_layer(self):
        assert receptive_field([LayerSpec("conv", 3, 1, 8)]) == 3

    def test_two_strided_layers(self):
        # hand recurrence: r = 1 + 2*1 = 3, then 3 + 2*2 = 7
        assert receptive_field([LayerSpec("conv", 3, 2, 8)] * 2) == 7

    def test_transposed_layer_rejected(self):
        with pytest.raises(ValueError):
            receptive_field([LayerSpec("conv_transpose", 3, 2, 8, output_padding=1)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            receptive_field([])


class TestLayerSpec:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            LayerSpec("pool", 2, 2, 8)

    def test_bad_kernel_and_stride(self):
        with pytest.raises(ValueError):
            LayerSpec("conv", 0, 1, 8)
        with pytest.raises(ValueError):
            LayerSpec("conv", 3, 0, 8)

    @pytest.mark.parametrize("channels", [0, -3])
    def test_out_channels_must_be_positive(self, channels):
        with pytest.raises(ValueError, match="out_channels must be >= 1"):
            LayerSpec("conv", 3, 1, channels)

    def test_only_valid_padding(self):
        with pytest.raises(ValueError):
            LayerSpec("conv", 3, 1, 8, padding="same")

    def test_output_padding_constraints(self):
        with pytest.raises(ValueError):
            LayerSpec("conv", 3, 2, 8, output_padding=1)  # conv takes none
        with pytest.raises(ValueError):
            LayerSpec("conv_transpose", 3, 2, 8, output_padding=2)  # >= stride
        spec = LayerSpec("conv_transpose", 3, 2, 8, output_padding=(1, 0))
        assert spec.output_padding_pair == (1, 0)
